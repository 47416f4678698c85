//! The benchmark's own derivations: percentile selection, the ratio
//! metrics at zero denominators, the `trace.*` scaling and residual, the
//! metric-name charset, and the catalogue against `BENCHMARK.json`.

use capnet_perfbench::derive::*;
use capnet_perfbench::metrics;
use std::collections::BTreeSet;

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
    assert_eq!(quartiles(&[1.0]), None);
    let share = iqr_share(&ten).expect("defined");
    assert!((share - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let pop: Vec<u64> = (1..=32_000).collect();
    // Nearest rank ceil(0.999 * 32000) = 31968: 32 samples lie beyond.
    assert_eq!(percentile_with_min_beyond(&pop, 0.999, 10), Some(31_968));
    assert_eq!(percentile_with_min_beyond(&pop, 0.5, 10), Some(16_000));
    // At 5000 samples only 5 lie beyond p99.9.
    assert_eq!(percentile_with_min_beyond(&pop[..5_000], 0.999, 10), None);
    assert_eq!(
        percentile_with_min_beyond(&pop[..5_000], 0.99, 10),
        Some(4_950)
    );
    assert_eq!(percentile_with_min_beyond(&[], 0.5, 0), None);
    assert_eq!(percentile_with_min_beyond(&pop, 1.5, 0), None);
    // The largest percentile is the sample maximum only when nothing
    // needs to lie beyond it.
    assert_eq!(percentile_with_min_beyond(&pop, 1.0, 0), Some(32_000));
    assert_eq!(percentile_with_min_beyond(&pop, 1.0, 1), None);
}

#[test]
fn ratio_metrics_are_zero_over_zero_denominators() {
    assert_eq!(ratio(5, 0), 0.0);
    // idle_poll_ratio and empty_round_ratio are plain ratios.
    assert_eq!(ratio(0, 0), 0.0);
    assert_eq!(ratio(3, 4), 0.75);
    assert_eq!(fresh_ratio(0, 0), 0.0);
    assert_eq!(fresh_ratio(1, 3), 0.25);
    assert_eq!(fresh_ratio(u64::MAX, 1), 1.0);
    assert_eq!(req_fail_ratio(0, 0), 0.0);
    assert_eq!(req_fail_ratio(100, 97), 0.03);
    // More successes than connections (keep-alive) is no failure.
    assert_eq!(req_fail_ratio(10, 12), 0.0);
}

#[test]
fn trace_scaling_and_residual() {
    // 1000 ns over 10 rig units is 100 ns per unit; 20 timed units over
    // half a simulated second is 4000 ns per simulated second.
    assert_eq!(scale_ns_per_sim_s(1000.0, 10, 20, 0.5), 4000.0);
    assert_eq!(scale_ns_per_sim_s(1000.0, 0, 20, 0.5), 0.0);
    assert_eq!(scale_ns_per_sim_s(1000.0, 10, 20, 0.0), 0.0);
    assert_eq!(scale_ns_per_sim_s(1000.0, 10, 0, 0.5), 0.0);
    assert_eq!(ns_per_call(900.0, 3), 300.0);
    assert_eq!(ns_per_call(900.0, 0), 0.0);
    assert_eq!(residual_ns_per_sim_s(0.5, &[1e8, 2e8]), 2e8);
    assert_eq!(residual_ns_per_sim_s(0.1, &[2e8]), -1e8);
    assert_eq!(residual_ns_per_sim_s(0.25, &[]), 2.5e8);
    assert_eq!(overhead_pct(1.5, 1.0), 50.0);
    assert_eq!(overhead_pct(1.0, 0.0), 0.0);
}

#[test]
fn name_and_unit_charset() {
    assert!(valid_name("host_s_per_sim_s"));
    assert!(valid_name("trace.updk.switch.ns_per_sim_s"));
    assert!(valid_name("9-lives"));
    assert!(valid_name(&"a".repeat(64)));
    assert!(!valid_name(&"a".repeat(65)));
    assert!(!valid_name(""));
    assert!(!valid_name("_leading"));
    assert!(!valid_name(".leading"));
    assert!(!valid_name("has space"));
    assert!(!valid_name("slash/name"));
    assert!(!valid_name("ünicode"));
    for unit in [
        "s", "s/s", "ns/s", "1/s", "%", "Mbit/s", "MiB", "count", "ratio",
    ] {
        assert!(valid_unit(unit), "{unit}");
    }
    assert!(!valid_unit(""));
    assert!(!valid_unit("two words"));
    assert!(!valid_unit(&"u".repeat(17)));
}

#[test]
fn catalogue_names_are_valid_and_unique() {
    let mut seen = BTreeSet::new();
    let all = metrics::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(metrics::per_layer());
    for (name, unit) in all {
        assert!(valid_name(&name), "{name}");
        assert!(valid_unit(unit), "{name}: {unit}");
        assert!(seen.insert(name.clone()), "{name} listed twice");
    }
    assert!(seen.len() <= 4 + 128);
}

/// `(name, unit)` of every `{"name": …, "unit": …}` object in the text.
fn listed(json: &str) -> Vec<(String, String)> {
    let field = |obj: &str, key: &str| {
        let tag = format!("\"{key}\": \"");
        obj.find(&tag).map(|i| {
            let rest = &obj[i + tag.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
    };
    json.split('{')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let want: Vec<(String, String)> = metrics::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .chain(
            metrics::per_layer()
                .into_iter()
                .map(|(n, u)| (n, u.to_string())),
        )
        .collect();
    assert_eq!(listed(&json), want);
    for w in capnet_perfbench::workload::Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

#[test]
fn result_line_shape() {
    let line = metrics::result_json(
        true,
        3,
        0,
        &[("a".into(), 1.25, "s"), ("b".into(), f64::NAN, "count")],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
         {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
    );
}
