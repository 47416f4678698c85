//! The benchmark's own arithmetic: medians and quartiles of host timings,
//! percentile selection for simulated request latency, the ratio metrics,
//! the `trace.*` scaling and residual, and the metric-name charset. Pure
//! functions only, so `tests/derive.rs` can pin every edge case.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method); `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are stated in. `None` when undefined.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile of an ascending population, the definition
/// `capnet_httpd::FleetReport::percentile_ns` uses, returned only when at
/// least `min_beyond` samples lie strictly beyond the selected rank — a
/// tail percentile resting on fewer samples is noise, not a measurement.
pub fn percentile_with_min_beyond(sorted: &[u64], p: f64, min_beyond: usize) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// `num / den`, defined as 0 when nothing was attempted (`den == 0`): an
/// idle-poll, fresh-buffer, empty-round or failure ratio over zero events
/// is "none of them", not undefined.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Frame buffers freshly heap-allocated per buffer taken from the pool.
pub fn fresh_ratio(fresh: u64, reused: u64) -> f64 {
    ratio(fresh, fresh.saturating_add(reused))
}

/// Connections that did not end in a 200, per connection started: a
/// refusal, reset, early EOF, shed, timeout or non-200 answer all count.
/// An `ok` above `started` (impossible for close-per-request churn) reads
/// as zero failures rather than a negative ratio.
pub fn req_fail_ratio(conns_started: u64, requests_ok: u64) -> f64 {
    ratio(conns_started.saturating_sub(requests_ok), conns_started)
}

/// One layer's host cost scaled from the traced rig to the timed run:
/// the rig spent `rig_ns` per `rig_units` of the layer's matching count
/// (events, switch ingress, frames in, loop polls, …); the timed run did
/// `timed_units` of that count over `sim_s` simulated seconds. Returns
/// host nanoseconds per simulated second, 0 when the rig never exercised
/// the layer or nothing was simulated.
pub fn scale_ns_per_sim_s(rig_ns: f64, rig_units: u64, timed_units: u64, sim_s: f64) -> f64 {
    if rig_units == 0 || sim_s <= 0.0 {
        return 0.0;
    }
    rig_ns / rig_units as f64 * timed_units as f64 / sim_s
}

/// Host nanoseconds per call, 0 for a layer the rig never called.
pub fn ns_per_call(total_ns: f64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns / calls as f64
    }
}

/// What the measured run costs beyond the traced layers, in host ns per
/// simulated second: `NetSim`'s own bookkeeping plus whatever no span
/// covers. Negative when the rig's layer estimates overshoot the run.
pub fn residual_ns_per_sim_s(host_s_per_sim_s: f64, layer_ns_per_sim_s: &[f64]) -> f64 {
    host_s_per_sim_s * 1e9 - layer_ns_per_sim_s.iter().sum::<f64>()
}

/// Tracing overhead: how much longer the rig ran with spans than
/// without, in percent of the untraced time (0 when undefined).
pub fn overhead_pct(with_spans_s: f64, without_spans_s: f64) -> f64 {
    if without_spans_s <= 0.0 {
        0.0
    } else {
        (with_spans_s - without_spans_s) / without_spans_s * 100.0
    }
}

/// `true` for a metric or workload name `BENCHMARK.json` accepts:
/// 1–64 ASCII letters, digits, `_`, `.` and `-`, starting with a letter
/// or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` for a unit `BENCHMARK.json` accepts: 1–16 ASCII letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
