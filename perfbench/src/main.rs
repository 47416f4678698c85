//! `capnet-perfbench`: runs one workload for a fixed wall-clock budget
//! and prints one JSON result line.
//!
//! ```text
//! capnet-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every timed sample runs in a fresh child process (this binary with
//! `--role sample`), so no sample inherits allocator state from an
//! earlier one: glibc raises its mmap threshold after the first large
//! free, which turns a later run's zeroed 4 MiB node arenas into heap
//! memsets and can double a 128-leaf run's host time.
//!
//! With `--trace 0` the result carries the end-to-end metrics (medians
//! over the samples); with `--trace 1` it carries the per-layer counts of
//! a timed sample plus the `trace.*` breakdown from the layer rig (child
//! role `rig`), run alternately with and without spans.

use capnet_perfbench::alloc_count;
use capnet_perfbench::calib::{self, MemKernel};
use capnet_perfbench::derive::{self, median};
use capnet_perfbench::metrics;
use capnet_perfbench::rig;
use capnet_perfbench::workload::{self, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

const USAGE: &str =
    "usage: capnet-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Fewest timed samples a run reports, however long they take.
const MIN_SAMPLES: usize = 5;
/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// Past this much wall time the run stops sampling even below
/// [`MIN_SAMPLES`], so that a run ends within 180 s.
const HARD_STOP: Duration = Duration::from_secs(110);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Main,
    Sample,
    Reference,
    Rig,
}

#[derive(Debug)]
struct Args {
    role: Role,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: bool,
    count_allocs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut role = Role::Main;
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans = false;
    let mut count_allocs = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--count-allocs" {
            count_allocs = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = parse_bool(&value).ok_or(bad(&"expected 0 or 1"))?,
            "--spans" => spans = parse_bool(&value).ok_or(bad(&"expected 0 or 1"))?,
            "--role" => {
                role = match value.as_str() {
                    "sample" => Role::Sample,
                    "reference" => Role::Reference,
                    "rig" => Role::Rig,
                    _ => return Err(format!("unknown role {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 60"));
    }
    Ok(Args {
        role,
        workload,
        seed,
        seconds,
        trace,
        spans,
        count_allocs,
    })
}

fn parse_bool(v: &str) -> Option<bool> {
    match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("capnet-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match args.role {
        Role::Main => run_main(&args),
        Role::Sample => child_sample(&args),
        Role::Reference => child_reference(&args),
        Role::Rig => child_rig(&args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("capnet-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Child roles: each prints `key value` lines on stdout.
// ---------------------------------------------------------------------

fn emit(key: &str, value: f64) {
    println!("{key} {value}");
}

fn emit_record(record: &[(String, f64)]) {
    for (k, v) in record {
        emit(k, *v);
    }
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn vm_hwm_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

fn child_sample(args: &Args) -> Result<(), String> {
    if args.count_allocs {
        alloc_count::enable();
    }
    let w = args.workload;
    let t = workload::timed_run(w, args.seed).map_err(|e| format!("{}: {e}", w.name()))?;
    println!("digest {}", t.outcome.trace.digest);
    emit_record(&workload::outcome_record(w, &t.outcome));
    emit_record(&workload::execution_record(&t.outcome));
    emit("host.setup_s", t.setup_s);
    emit("host.run_s", t.run_s);
    emit("host.allocs", t.allocs as f64);
    emit("host.alloc_bytes", t.alloc_bytes as f64);
    emit("host.run_allocs", t.run_allocs as f64);
    emit("host.pool.fresh", t.pool.fresh as f64);
    emit("host.pool.reused", t.pool.reused as f64);
    drop(t);
    emit("host.vmhwm_kib", vm_hwm_kib());
    Ok(())
}

/// The run a workload's outcome must equal: `ScenarioSpec::paper` for the
/// paper workload, the one-worker run for the two-worker one.
fn child_reference(args: &Args) -> Result<(), String> {
    let out = match args.workload {
        Workload::PaperS4Bulk => workload::paper_reference(args.seed),
        Workload::Star128BulkW2 => {
            workload::timed_run(Workload::Star128Bulk, args.seed).map(|t| t.outcome)
        }
        w => return Err(format!("{} has no reference run", w.name())),
    }
    .map_err(|e| format!("reference run: {e}"))?;
    println!("digest {}", out.trace.digest);
    emit_record(&workload::outcome_record(args.workload, &out));
    Ok(())
}

fn child_rig(args: &Args) -> Result<(), String> {
    let report = rig::run(args.workload, args.seed, args.spans).map_err(|e| format!("rig: {e}"))?;
    emit_record(&report.record());
    if args.spans {
        if let Err(e) = report.tracer.dump(args.workload.name()) {
            eprintln!("capnet-perfbench: span dump skipped: {e}");
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The orchestrating parent.
// ---------------------------------------------------------------------

/// One child's output: the trace digest plus named values.
#[derive(Debug, Clone)]
struct Rec {
    digest: u64,
    vals: BTreeMap<String, f64>,
}

impl Rec {
    fn get(&self, key: &str) -> f64 {
        self.vals.get(key).copied().unwrap_or(0.0)
    }

    fn count(&self, key: &str) -> u64 {
        self.get(key) as u64
    }

    /// The values a rerun at the same seed must reproduce exactly.
    fn deterministic(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.vals
            .iter()
            .filter(|(k, _)| !k.starts_with("host.") && !k.starts_with("exec."))
    }
}

fn parse_rec(stdout: &str) -> Result<Rec, String> {
    let mut digest = None;
    let mut vals = BTreeMap::new();
    for line in stdout.lines() {
        let (k, v) = line
            .split_once(' ')
            .ok_or(format!("malformed child line {line:?}"))?;
        if k == "digest" {
            digest = Some(v.parse::<u64>().map_err(|e| format!("digest {v}: {e}"))?);
        } else {
            let v: f64 = v.parse().map_err(|e| format!("{k} {v}: {e}"))?;
            vals.insert(k.to_string(), v);
        }
    }
    Ok(Rec {
        digest: digest.unwrap_or(0),
        vals,
    })
}

/// Runs this binary in `role` and waits for it, killing it after
/// [`CHILD_TIMEOUT`].
fn spawn(role: &str, args: &Args, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--role", role, "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {role}: {e}"))?;
    // Read the child's stdout to EOF on a helper thread and wait for it
    // here without polling, so the parent takes no CPU from the sample.
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        // The receiver is gone only after a timeout, when nobody wants
        // the output any more.
        let _ = tx.send(std::io::read_to_string(stdout));
    });
    let out = match rx.recv_timeout(CHILD_TIMEOUT) {
        Ok(out) => out,
        Err(_) => {
            // Kill and reap; the reader then sees EOF and ends.
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!("{role} child timed out"));
        }
    };
    let status = child.wait().map_err(|e| format!("wait {role}: {e}"));
    reader
        .join()
        .map_err(|_| "child reader panicked".to_string())?;
    let out = out.map_err(|e| format!("read {role} output: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("{role} child failed: {status}"));
    }
    Ok(out)
}

fn spawn_rec(role: &str, args: &Args, extra: &[&str]) -> Result<Rec, String> {
    spawn(role, args, extra).and_then(|s| parse_rec(&s))
}

/// Host fingerprint: CPU count, CPU model, compiler.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\"")
}

/// Why `rec` fails its correctness check; empty when it passes.
fn problems(
    w: Workload,
    seed: u64,
    rec: &Rec,
    first: Option<&Rec>,
    reference: Option<&Rec>,
) -> Vec<String> {
    let mut p = Vec::new();
    if seed == DEFAULT_SEED && rec.digest != workload::recorded_digest(w) {
        p.push(format!(
            "digest {:#018x} differs from the recorded {:#018x}",
            rec.digest,
            workload::recorded_digest(w)
        ));
    }
    if let Some(first) = first {
        if rec.digest != first.digest || !rec.deterministic().eq(first.deterministic()) {
            p.push("a rerun at the same seed differs from the first sample".into());
        }
    }
    if let Some(r) = reference {
        if rec.digest != r.digest {
            p.push(format!(
                "digest {:#018x} differs from the reference run's {:#018x}",
                rec.digest, r.digest
            ));
        }
        let shared = |k: &String| {
            k.starts_with("sim.")
                || k.starts_with("counters.")
                || k.starts_with("trace.")
                || k == "events"
        };
        if w == Workload::Star128BulkW2 {
            for (k, v) in r.vals.iter().filter(|(k, _)| shared(k)) {
                if rec.vals.get(k) != Some(v) {
                    p.push(format!("{k} differs from the one-worker run"));
                }
            }
        }
    }
    if rec.get("sim.goodput_mbit_s") <= 0.0 {
        p.push("no payload delivered".into());
    }
    if w.is_http() {
        if rec.count("sim.requests_ok") == 0 {
            p.push("no HTTP request succeeded".into());
        }
        if rec.get("sim.req_p999_supported") != 1.0 {
            p.push("fewer than 10 requests beyond p99.9".into());
        }
    }
    p
}

/// Tally of checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one simulation run; returns its record when it passed.
    fn check(
        &mut self,
        what: &str,
        result: Result<Rec, String>,
        why: impl FnOnce(&Rec) -> Vec<String>,
    ) -> Option<Rec> {
        self.attempted += 1;
        match result {
            Ok(rec) => {
                let p = why(&rec);
                if p.is_empty() {
                    return Some(rec);
                }
                for msg in p {
                    eprintln!("capnet-perfbench: {what} failed its check: {msg}");
                }
            }
            Err(e) => eprintln!("capnet-perfbench: {what} failed: {e}"),
        }
        self.failed += 1;
        None
    }
}

/// Median of `key` over `recs`.
fn med(recs: &[Rec], key: &str) -> f64 {
    median(&recs.iter().map(|r| r.get(key)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The run's median of a host time `key`, rescaled to a host whose
/// calibration pass `cal_key` takes `reference` ms: host speed drifts by
/// 10–30% over minutes on a shared machine, and the calibration pass run
/// next to each sample tracks that drift, so the ratio compares commits
/// rather than moments.
fn at_reference_speed(samples: &[Rec], key: &str, cal_key: &str, reference: f64) -> f64 {
    let cal = med(samples, cal_key);
    if cal > 0.0 {
        med(samples, key) * reference / cal
    } else {
        0.0
    }
}

fn spread(label: &str, values: &[f64]) {
    let m = median(values).unwrap_or(0.0);
    let s = derive::iqr_share(values).unwrap_or(0.0);
    eprintln!(
        "  {label:<24} median {m:<14.6} iqr/median {s:.4} (n={})",
        values.len()
    );
}

fn run_main(args: &Args) -> Result<(), String> {
    let t_start = Instant::now();
    let w = args.workload;
    let host = fingerprint();
    println!("capnet-perfbench host {host}");
    eprintln!(
        "capnet-perfbench: {} seed={} seconds={} trace={} host {host}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let kernel = MemKernel::new();
    let mut tally = Tally::default();
    let seed = args.seed;

    let reference = match w {
        Workload::PaperS4Bulk | Workload::Star128BulkW2 => {
            let r = spawn_rec("reference", args, &[]);
            let r = tally.check("reference run", r, |r| {
                if r.get("sim.goodput_mbit_s") > 0.0 {
                    Vec::new()
                } else {
                    vec!["no payload delivered".into()]
                }
            });
            // A failed reference fails every sample compared against it.
            Some(r.unwrap_or(Rec {
                digest: 0,
                vals: BTreeMap::new(),
            }))
        }
        _ => None,
    };

    // Timed samples: with --trace 1 the first counts allocations (its
    // counts feed the per-layer metrics) and the sampling phase takes
    // under half the budget, leaving the rest to the rig.
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    });
    let min_samples = if args.trace { 2 } else { MIN_SAMPLES };
    let t_sampling = Instant::now();
    let mut samples: Vec<Rec> = Vec::new();
    let mut first: Option<Rec> = None;
    let mut counted: Option<Rec> = None;
    while (samples.len() < min_samples || t_sampling.elapsed() < budget)
        && t_start.elapsed() < HARD_STOP
    {
        let cal_mem = kernel.pass_ms();
        let cal_cpu = calib::cpu_pass_ms(1);
        let cal_rendezvous = if w.workers() > 1 {
            calib::cpu_pass_ms(w.workers())
        } else {
            0.0
        };
        let counting = args.trace && counted.is_none();
        let extra: &[&str] = if counting { &["--count-allocs"] } else { &[] };
        let r = spawn_rec("sample", args, extra);
        let n = tally.attempted;
        if let Some(mut rec) = tally.check(&format!("sample {n}"), r, |r| {
            problems(w, seed, r, first.as_ref(), reference.as_ref())
        }) {
            let wall = rec.get("host.run_s") / rec.get("sim.horizon_s");
            eprintln!(
                "  sample {n}: setup {:.6} s, run {:.4} s, {wall:.4} host s/sim s, rss {:.1} MiB, \
                 calib mem {cal_mem:.3} ms, cpu {cal_cpu:.3} ms",
                rec.get("host.setup_s"),
                rec.get("host.run_s"),
                rec.get("host.vmhwm_kib") / 1024.0
            );
            first.get_or_insert_with(|| rec.clone());
            rec.vals.insert("host.s_per_sim_s".into(), wall);
            rec.vals.insert("host.calib_mem_ms".into(), cal_mem);
            rec.vals.insert("host.calib_cpu_ms".into(), cal_cpu);
            rec.vals
                .insert("host.calib_rendezvous_ms".into(), cal_rendezvous);
            if counting {
                counted = Some(rec);
            } else {
                samples.push(rec);
            }
        }
    }

    eprintln!("capnet-perfbench: {} timed samples", samples.len());
    for key in [
        "host.s_per_sim_s",
        "host.setup_s",
        "host.calib_mem_ms",
        "host.calib_cpu_ms",
        "host.calib_rendezvous_ms",
    ] {
        spread(key, &samples.iter().map(|r| r.get(key)).collect::<Vec<_>>());
    }

    let metrics_out: Vec<(String, f64, &str)> = if args.trace {
        let rigs = rig_runs(args, &mut tally, t_start);
        let counted = counted.or_else(|| samples.first().cloned());
        match counted {
            Some(c) => per_layer_metrics(w, &c, &samples, &rigs),
            None => Vec::new(),
        }
    } else {
        let pick = |name: &str| -> f64 {
            match name {
                // Sharded runs wait on each other every round, so their
                // run time follows the rendezvous pass.
                "host_s_per_sim_s" if w.workers() > 1 => at_reference_speed(
                    &samples,
                    "host.s_per_sim_s",
                    "host.calib_rendezvous_ms",
                    calib::REF_RENDEZVOUS_MS,
                ),
                "host_s_per_sim_s" => at_reference_speed(
                    &samples,
                    "host.s_per_sim_s",
                    "host.calib_cpu_ms",
                    calib::REF_CPU_MS,
                ),
                "setup_s" => at_reference_speed(
                    &samples,
                    "host.setup_s",
                    "host.calib_cpu_ms",
                    calib::REF_CPU_MS,
                ),
                "peak_rss_mib" => med(&samples, "host.vmhwm_kib") / 1024.0,
                "sim_goodput_mbit_s" => med(&samples, "sim.goodput_mbit_s"),
                _ => unreachable!("END_TO_END lists only these"),
            }
        };
        metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), pick(n), u))
            .collect()
    };
    let correct = tally.failed == 0 && !metrics_out.is_empty();
    println!(
        "{}",
        metrics::result_json(correct, tally.attempted, tally.failed, &metrics_out)
    );
    Ok(())
}

/// The rig, alternately with and without spans, until the budget is
/// spent (at least two of each).
fn rig_runs(args: &Args, tally: &mut Tally, t_start: Instant) -> RigRuns {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut runs = RigRuns::default();
    while (runs.on.len() < 2 || runs.off.len() < 2 || t_start.elapsed() < budget)
        && t_start.elapsed() < HARD_STOP
    {
        let spans = runs.on.len() <= runs.off.len();
        let r = spawn_rec("rig", args, &["--spans", if spans { "1" } else { "0" }]);
        let what = if spans {
            "rig run (spans)"
        } else {
            "rig run (no spans)"
        };
        if let Some(rec) = tally.check(what, r, |r| {
            if r.get("rig.payload_bytes") > 0.0 {
                Vec::new()
            } else {
                vec!["the rig moved no payload".into()]
            }
        }) {
            if spans {
                runs.on.push(rec);
            } else {
                runs.off.push(rec);
            }
        }
    }
    runs
}

#[derive(Default)]
struct RigRuns {
    on: Vec<Rec>,
    off: Vec<Rec>,
}

/// The timed run's count each traced layer scales by, as (rig key, timed
/// key).
fn matching_count(layer: &str) -> (&'static str, &'static str) {
    match layer {
        "simkern" => ("rig.events", "events"),
        "updk.switch" => ("rig.switch_hops", "counters.switch_hops"),
        "updk.nic_deliver" => ("rig.deliveries", "counters.deliveries"),
        "updk.nic_tx" => ("rig.frames_out", "stack.frames_out"),
        "fstack.input" => ("rig.frames_in", "stack.frames_in"),
        "fstack.timer" => ("rig.parks", "counters.parks"),
        "intravisor.mutex" => ("rig.mutex_acquisitions", "mutex.acquisitions"),
        "cheri.copy" => ("rig.copies", "sim.payload_bufs"),
        // NIC polls, TX polls and app steps happen once per loop poll.
        _ => ("rig.loop_polls", "counters.loop_polls"),
    }
}

fn per_layer_metrics(
    w: Workload,
    c: &Rec,
    samples: &[Rec],
    rigs: &RigRuns,
) -> Vec<(String, f64, &'static str)> {
    let mut vals: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        vals.insert(k.to_string(), v);
    };
    let sim_s = c.get("sim.horizon_s");
    let timed = if samples.is_empty() {
        std::slice::from_ref(c)
    } else {
        samples
    };
    // Layer times are wall time, so the residual takes the wall figure.
    let host = med(timed, "host.s_per_sim_s");
    let events = c.count("events");
    put("simkern.events", events as f64);
    put(
        "simkern.events_per_host_s",
        if host > 0.0 {
            events as f64 / (host * sim_s)
        } else {
            0.0
        },
    );
    let polls = c.count("counters.loop_polls");
    put("netsim.loop_polls", polls as f64);
    put(
        "netsim.idle_poll_ratio",
        derive::ratio(c.count("counters.idle_polls"), polls),
    );
    put("netsim.parks", c.get("counters.parks"));
    put("netsim.wakes", c.get("counters.wakes"));
    put("netsim.timer_wakes", c.get("counters.timer_wakes"));
    let stale = c.count("counters.stale_wakes");
    put(
        "netsim.stale_wake_ratio",
        derive::ratio(
            stale,
            stale + c.count("counters.wakes") + c.count("counters.timer_wakes"),
        ),
    );
    put("updk.deliveries", c.get("counters.deliveries"));
    put("updk.switch_hops", c.get("counters.switch_hops"));
    put("updk.switch.forwarded", c.get("switch.forwarded"));
    put("updk.switch.flooded", c.get("switch.flooded"));
    put("updk.switch.dropped", c.get("switch.dropped"));
    put("updk.port.alloc_failures", c.get("port.alloc_failures"));
    put("updk.framebuf.fresh", c.get("host.pool.fresh"));
    put(
        "updk.framebuf.fresh_ratio",
        derive::fresh_ratio(c.count("host.pool.fresh"), c.count("host.pool.reused")),
    );
    for k in [
        "frames_in",
        "frames_out",
        "tcp_in",
        "drops",
        "rsts_out",
        "listen_drops",
        "conn_timeouts",
    ] {
        put(&format!("fstack.{k}"), c.get(&format!("stack.{k}")));
    }
    put("intravisor.mutex_acquisitions", c.get("mutex.acquisitions"));
    put("intravisor.mutex_contentions", c.get("mutex.contentions"));
    put("httpd.conns_started", c.get("sim.conns_started"));
    put("httpd.requests_ok", c.get("sim.requests_ok"));
    put("httpd.shed", c.get("sim.shed"));
    put("httpd.refused", c.get("sim.refused"));
    put("httpd.sim_req_per_s", c.get("sim.req_per_s"));
    put("httpd.sim_req_p50_us", c.get("sim.req_p50_us"));
    put("httpd.sim_req_p999_us", c.get("sim.req_p999_us"));
    put("httpd.sim_req_fail_ratio", c.get("sim.req_fail_ratio"));
    put("parallel.workers_used", c.get("exec.workers"));
    put("parallel.rounds", c.get("exec.rounds"));
    put(
        "parallel.empty_round_ratio",
        derive::ratio(c.count("exec.empty_rounds"), c.count("exec.rounds")),
    );
    put("parallel.xshard_frames", c.get("exec.xshard_frames"));
    put("parallel.rehome_bytes", c.get("exec.rehome_bytes"));
    put("host.allocs", c.get("host.allocs"));
    put("host.alloc_bytes", c.get("host.alloc_bytes"));
    put(
        "host.allocs_per_delivery",
        derive::ratio(c.count("host.run_allocs"), c.count("counters.deliveries")),
    );
    put("host.calib_mem_ms", med(timed, "host.calib_mem_ms"));
    put("host.calib_cpu_ms", med(timed, "host.calib_cpu_ms"));
    put(
        "host.calib_rendezvous_ms",
        med(timed, "host.calib_rendezvous_ms"),
    );
    put("host.wall_s_per_sim_s", host);
    put("host.wall_setup_s", med(timed, "host.setup_s"));

    // The traced rig, scaled to the timed run.
    let mut c_units = c.clone();
    c_units.vals.insert(
        "sim.payload_bufs".into(),
        (c.get("sim.payload_bytes") / workload::APP_BUF as f64).floor(),
    );
    let rig_med = |key: &str| med(&rigs.on, key);
    let mut layer_sum = Vec::new();
    eprintln!("capnet-perfbench: rig vs timed run ({}):", w.name());
    eprintln!(
        "  {:<20} {:>14} {:>14} {:>14}",
        "layer", "rig calls", "rig units", "timed units"
    );
    for layer in metrics::TRACE_LAYERS {
        let (rig_key, timed_key) = matching_count(layer);
        let calls = rig_med(&format!("layer.{layer}.calls")) as u64;
        let ns = rig_med(&format!("layer.{layer}.self_ns"));
        let rig_units = rig_med(rig_key) as u64;
        let timed_units = c_units.count(timed_key);
        let per_sim_s = derive::scale_ns_per_sim_s(ns, rig_units, timed_units, sim_s);
        eprintln!("  {layer:<20} {calls:>14} {rig_units:>14} {timed_units:>14}");
        put(
            &format!("trace.{layer}.ns_per_call"),
            derive::ns_per_call(ns, calls),
        );
        put(&format!("trace.{layer}.ns_per_sim_s"), per_sim_s);
        // The standalone copies are already inside the app steps' *_incl
        // spans; summing both would count them twice.
        if layer != "cheri.copy" {
            layer_sum.push(per_sim_s);
        }
    }
    put(
        "trace.netsim.residual_ns_per_sim_s",
        derive::residual_ns_per_sim_s(host, &layer_sum),
    );
    put(
        "trace.overhead_pct",
        derive::overhead_pct(med(&rigs.on, "rig.wall_s"), med(&rigs.off, "rig.wall_s")),
    );
    metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = vals.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect()
}
