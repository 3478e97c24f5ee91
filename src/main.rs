//! `separ` — the command-line front end of the reproduction.
//!
//! ```text
//! separ pack <dir>                         write the demo bundle as .sdex files
//! separ analyze <app.sdex>... [options]    run AME + ASE on a bundle
//!     --policies-out <file>                write synthesized policies as JSON
//!     --alloy                              print the extracted Alloy modules
//!     --threads <n>                        worker threads (0 = all cores, the default)
//!     --stats                              per-signature CNF/SAT statistics + span/metric summary
//!     --trace <file>                       write a Chrome trace-event JSON (Perfetto-loadable)
//!     --events <file>                      write the structured event log as JSONL
//!     --model-cache <dir>                  reuse extracted models keyed by package content hash
//! separ disasm <app.sdex>                  disassemble a package
//! separ lint <app.sdex>... [--json]        verify packages, report diagnostics
//!                                          (including Info-severity relevance findings)
//! separ enforce <app.sdex>... --policies <file> --launch <pkg> <Class>
//!                             [--stats]
//!                                          run a bundle under enforcement
//! separ serve --socket <path> | --listen <addr>
//!             [--store <dir>] [--queue <n>] [--batch-max <n>]
//!             [--deadline-ms <n>] [--threads <n>]
//!             [--slow-ms <n>] [--audit <file>] [--audit-max-kb <n>]
//!                                          run the continuous analysis
//!                                          daemon: line-delimited JSON
//!                                          requests (install / uninstall /
//!                                          set_permission / query / decide /
//!                                          stats / metrics / health /
//!                                          subscribe / shutdown) over a
//!                                          unix socket or TCP; --store
//!                                          persists the session across
//!                                          restarts; --slow-ms logs slow
//!                                          requests; --audit appends a
//!                                          size-rotated JSONL audit log
//! separ demo                               the Figure 1 attack, end to end
//! ```

use std::process::ExitCode;

use separ::analysis::diagnostics::{self, Severity};
use separ::core::{policy_io, Separ, SeparConfig};
use separ::dex::codec;
use separ::enforce::{Device, PromptHandler};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("pack") => cmd_pack(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("lint") => return cmd_lint(&args[1..]),
        Some("enforce") => cmd_enforce(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("demo") => cmd_demo(),
        _ => {
            eprintln!("usage: separ <pack|analyze|disasm|lint|enforce|serve|demo> ...");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("separ: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Why a subcommand failed. Like `separ lint` and an unknown
/// subcommand, a bad invocation exits 2; a run that fails exits 1.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// Unknown option, missing or malformed value, no inputs.
    Usage(String),
    /// The invocation was valid but the run failed.
    Failed(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Failed(msg)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

type CliResult = Result<(), CliError>;

fn load_apk(path: &str) -> Result<separ::dex::Apk, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    codec::decode(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// `separ pack <dir>`: writes the motivating bundle as binary packages.
fn cmd_pack(args: &[String]) -> CliResult {
    let dir = args
        .first()
        .ok_or_else(|| usage("pack: missing output directory"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let apps = [
        ("navigator.sdex", separ::corpus::motivating::navigator_app()),
        (
            "messenger.sdex",
            separ::corpus::motivating::messenger_app(false),
        ),
        (
            "wallpaper.sdex",
            separ::corpus::motivating::malicious_app("+15550000"),
        ),
    ];
    for (name, apk) in apps {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, codec::encode(&apk)).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path} ({})", apk.package());
    }
    Ok(())
}

/// `separ analyze <apps...>`: full pipeline, human-readable report.
fn cmd_analyze(args: &[String]) -> CliResult {
    let mut files = Vec::new();
    let mut policies_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut events_out: Option<String> = None;
    let mut print_alloy = false;
    let mut print_stats = false;
    let mut model_cache_dir: Option<String> = None;
    let mut config = SeparConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--policies-out" => {
                i += 1;
                policies_out = Some(
                    args.get(i)
                        .ok_or_else(|| usage("analyze: --policies-out needs a path"))?
                        .clone(),
                );
            }
            "--trace" => {
                i += 1;
                trace_out = Some(
                    args.get(i)
                        .ok_or_else(|| usage("analyze: --trace needs a path"))?
                        .clone(),
                );
            }
            "--events" => {
                i += 1;
                events_out = Some(
                    args.get(i)
                        .ok_or_else(|| usage("analyze: --events needs a path"))?
                        .clone(),
                );
            }
            "--alloy" => print_alloy = true,
            "--stats" => print_stats = true,
            "--threads" => {
                i += 1;
                config.threads = args
                    .get(i)
                    .ok_or_else(|| usage("analyze: --threads needs a count"))?
                    .parse()
                    .map_err(|e| usage(format!("analyze: --threads: {e}")))?;
            }
            "--model-cache" => {
                i += 1;
                model_cache_dir = Some(
                    args.get(i)
                        .ok_or_else(|| usage("analyze: --model-cache needs a directory"))?
                        .clone(),
                );
            }
            f if f.starts_with('-') => {
                return Err(usage(format!("analyze: unknown option {f}")));
            }
            f => files.push(f.to_string()),
        }
        i += 1;
    }
    if files.is_empty() {
        return Err(usage("analyze: no input packages"));
    }
    // Timing in `BundleStats` is span-derived, so tracing is on for
    // every analyze run; the snapshot also feeds --trace/--events.
    separ::obs::global().enable();
    let apks: Vec<_> = files
        .iter()
        .map(|f| load_apk(f))
        .collect::<Result<_, _>>()?;
    let mut separ = Separ::new().with_config(config);
    let model_cache = model_cache_dir
        .as_ref()
        .map(|dir| std::sync::Arc::new(separ::core::ModelCache::with_dir(dir)));
    if let Some(cache) = &model_cache {
        separ = separ.with_model_cache(cache.clone());
    }
    let report = separ.analyze_apks(&apks).map_err(|e| e.to_string())?;
    println!(
        "bundle: {} app(s), {} component(s), {} intent(s)",
        report.apps.len(),
        report.stats.components,
        report.stats.intents
    );
    println!(
        "timing: extraction {:?} wall / {:?} cpu, resolution {:?}, synthesis {:?} wall ({:?} construction + {:?} solving cpu)",
        report.stats.extraction_wall,
        report.stats.extraction_cpu,
        report.stats.resolution,
        report.stats.synthesis_wall,
        report.stats.construction,
        report.stats.solving,
    );
    if let Some(cache) = &model_cache {
        let cs = cache.stats();
        println!(
            "model cache: {} hit(s) ({} memory, {} disk), {} miss(es), {} corrupt entr(ies)",
            report.stats.cache_hits,
            cs.memory_hits,
            cs.disk_hits,
            report.stats.cache_misses,
            cs.corrupt,
        );
    }
    if report.stats.quarantined_methods > 0 {
        println!(
            "warning: {} method(s) quarantined by the bytecode verifier (run `separ lint` for details)",
            report.stats.quarantined_methods
        );
    }
    if print_stats {
        println!(
            "verifier: {} diagnostic(s), {} quarantined method(s)",
            report.stats.diagnostics, report.stats.quarantined_methods
        );
        println!(
            "extraction: {} model-cache hit(s), {} miss(es)",
            report.stats.cache_hits, report.stats.cache_misses
        );
        println!(
            "solver: {} primary vars, {} clauses, {}/{} signatures reused the shared bundle base",
            report.stats.primary_vars,
            report.stats.cnf_clauses,
            report.stats.shared_base_reuse,
            report.stats.per_signature.len(),
        );
        println!(
            "slicing: {} app slot(s) kept, {} dropped across {} signature(s)",
            report.stats.slice_kept,
            report.stats.slice_dropped,
            report.stats.per_signature.len(),
        );
        for s in &report.stats.per_signature {
            println!(
                "  {:<22} slice={}/{} vars={:<5} clauses={:<6} conflicts={:<5} propagations={:<7} restarts={} learnts={} minimized={} construction={:?} solving={:?} enumerate={:?}",
                s.name,
                s.slice_kept,
                s.slice_kept + s.slice_dropped,
                s.primary_vars,
                s.cnf_clauses,
                s.solver.conflicts,
                s.solver.propagations,
                s.solver.restarts,
                s.solver.learnts,
                s.solver.minimized_lits,
                s.construction,
                s.solving,
                s.enumerate,
            );
        }
    }
    if print_alloy {
        println!(
            "\n{}",
            separ::core::alloy_export::bundle_modules(&report.apps)
        );
    }
    println!("\nexploit scenarios ({}):", report.exploits.len());
    for e in &report.exploits {
        println!("  - {e}");
    }
    println!("\npolicies ({}):", report.policies.len());
    for p in &report.policies {
        println!(
            "  #{} [{}] {:?}: {:?}",
            p.id, p.vulnerability, p.event, p.conditions
        );
    }
    if let Some(path) = policies_out {
        std::fs::write(&path, policy_io::to_json(&report.policies))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("\npolicies written to {path}");
    }
    if trace_out.is_some() || events_out.is_some() || print_stats {
        let trace = separ::obs::global().snapshot();
        if print_stats {
            println!("\nobservability summary:");
            print!("{}", trace.text_summary());
        }
        if let Some(path) = trace_out {
            std::fs::write(&path, trace.chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
            println!("trace written to {path}");
        }
        if let Some(path) = events_out {
            std::fs::write(&path, trace.events_jsonl()).map_err(|e| format!("{path}: {e}"))?;
            println!("events written to {path}");
        }
    }
    Ok(())
}

/// `separ disasm <app>`: textual listing.
fn cmd_disasm(args: &[String]) -> CliResult {
    let file = args
        .first()
        .ok_or_else(|| usage("disasm: missing input package"))?;
    let apk = load_apk(file)?;
    print!("{}", separ::dex::disasm::package(&apk));
    Ok(())
}

/// `separ lint <apps...> [--json]`: decode and verify packages, reporting
/// structured diagnostics. Exit codes: 0 = no Error-severity findings,
/// 1 = at least one Error, 2 = usage or I/O problems.
fn cmd_lint(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            f if f.starts_with('-') => {
                eprintln!("separ: lint: unknown option {f}");
                return ExitCode::from(2);
            }
            f => files.push(f.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("separ: lint: no input packages");
        return ExitCode::from(2);
    }
    let mut all = Vec::new();
    let mut quarantined = 0usize;
    for path in &files {
        match std::fs::read(path) {
            Err(e) => {
                eprintln!("separ: lint: {path}: {e}");
                return ExitCode::from(2);
            }
            Ok(bytes) => match codec::decode(&bytes) {
                // A malformed container is a finding, not an abort: the
                // remaining packages still get linted.
                Err(e) => all.push(diagnostics::decode_failure(path, &e)),
                Ok(apk) => {
                    let lint = diagnostics::lint_apk(&apk);
                    quarantined += lint.quarantined_methods;
                    all.extend(lint.diagnostics);
                    // Relevance findings read the extracted model, not
                    // the raw package: components no signature footprint
                    // can match are reported at Info severity.
                    let model = separ::analysis::extractor::extract_apk(&apk);
                    all.extend(diagnostics::unreachable_components(&model));
                }
            },
        }
    }
    let errors = all.iter().filter(|d| d.severity == Severity::Error).count();
    let infos = all.iter().filter(|d| d.severity == Severity::Info).count();
    if json {
        print!("{}", diagnostics::to_json(&all));
    } else {
        for d in &all {
            println!("{d}");
        }
        println!(
            "{} finding(s) in {} package(s): {} error(s), {} warning(s), {} info(s); {} method(s) would be quarantined",
            all.len(),
            files.len(),
            errors,
            all.len() - errors - infos,
            infos,
            quarantined,
        );
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `separ serve --socket <path> | --listen <addr> [options]`.
fn cmd_serve(args: &[String]) -> CliResult {
    use separ::serve::{Daemon, Endpoint, ServeConfig};
    let mut endpoint: Option<Endpoint> = None;
    let mut cfg = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> Result<&String, CliError> {
            args.get(i + 1)
                .ok_or_else(|| usage(format!("serve: {flag} needs a value")))
        };
        match flag {
            "--socket" => {
                endpoint = Some(Endpoint::Unix(value(i)?.into()));
                i += 1;
            }
            "--listen" => {
                endpoint = Some(Endpoint::Tcp(value(i)?.clone()));
                i += 1;
            }
            "--store" => {
                cfg.store_dir = Some(value(i)?.into());
                i += 1;
            }
            "--queue" => {
                cfg.queue_capacity = value(i)?
                    .parse()
                    .map_err(|e| usage(format!("serve: --queue: {e}")))?;
                i += 1;
            }
            "--batch-max" => {
                cfg.batch_max = value(i)?
                    .parse()
                    .map_err(|e| usage(format!("serve: --batch-max: {e}")))?;
                i += 1;
            }
            "--deadline-ms" => {
                let ms: u64 = value(i)?
                    .parse()
                    .map_err(|e| usage(format!("serve: --deadline-ms: {e}")))?;
                cfg.default_deadline = std::time::Duration::from_millis(ms);
                i += 1;
            }
            "--threads" => {
                cfg.config.threads = value(i)?
                    .parse()
                    .map_err(|e| usage(format!("serve: --threads: {e}")))?;
                i += 1;
            }
            "--slow-ms" => {
                cfg.slow_ms = Some(
                    value(i)?
                        .parse()
                        .map_err(|e| usage(format!("serve: --slow-ms: {e}")))?,
                );
                i += 1;
            }
            "--audit" => {
                cfg.audit_path = Some(value(i)?.into());
                i += 1;
            }
            "--audit-max-kb" => {
                let kb: u64 = value(i)?
                    .parse()
                    .map_err(|e| usage(format!("serve: --audit-max-kb: {e}")))?;
                cfg.audit_max_bytes = kb.checked_mul(1024).ok_or_else(|| {
                    usage(format!(
                        "serve: --audit-max-kb: {kb} KiB overflows a byte count"
                    ))
                })?;
                i += 1;
            }
            f => return Err(usage(format!("serve: unknown option {f}"))),
        }
        i += 1;
    }
    let endpoint =
        endpoint.ok_or_else(|| usage("serve: need --socket <path> or --listen <addr>"))?;
    let daemon = Daemon::start(cfg).map_err(|e| format!("serve: {e}"))?;
    let (restored, skipped) = daemon.restored();
    if restored > 0 || skipped > 0 {
        println!("separ serve: restored {restored} app(s) from store ({skipped} unrecoverable)");
    }
    match &endpoint {
        Endpoint::Unix(path) => println!("separ serve: listening on {}", path.display()),
        Endpoint::Tcp(addr) => println!("separ serve: listening on {addr}"),
    }
    separ::serve::serve(daemon, &endpoint).map_err(|e| format!("serve: {e}"))?;
    println!("separ serve: drained and stopped");
    Ok(())
}

/// `separ enforce <apps...> --policies <file> --launch <pkg> <Class>`.
fn cmd_enforce(args: &[String]) -> CliResult {
    let mut files = Vec::new();
    let mut policy_file: Option<String> = None;
    let mut launch: Option<(String, String)> = None;
    let mut print_stats = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => print_stats = true,
            "--policies" => {
                i += 1;
                policy_file = Some(
                    args.get(i)
                        .ok_or_else(|| usage("enforce: --policies needs a path"))?
                        .clone(),
                );
            }
            "--launch" => {
                let pkg = args
                    .get(i + 1)
                    .ok_or_else(|| usage("enforce: --launch needs <pkg> <Class>"))?;
                let class = args
                    .get(i + 2)
                    .ok_or_else(|| usage("enforce: --launch needs <pkg> <Class>"))?;
                launch = Some((pkg.clone(), class.clone()));
                i += 2;
            }
            f if f.starts_with('-') => {
                return Err(usage(format!("enforce: unknown option {f}")));
            }
            f => files.push(f.to_string()),
        }
        i += 1;
    }
    if files.is_empty() {
        return Err(usage("enforce: no input packages"));
    }
    let (pkg, class) =
        launch.ok_or_else(|| usage("enforce: --launch <pkg> <Class> is required"))?;
    // PDP decision latencies land in a histogram on the global
    // collector; --stats prints it after the run, next to the hook, PDP
    // and audit counters.
    separ::obs::global().enable();
    let apks: Vec<_> = files
        .iter()
        .map(|f| load_apk(f))
        .collect::<Result<_, _>>()?;
    let packages: Vec<String> = apks.iter().map(|a| a.package().to_string()).collect();
    let mut device = Device::new(apks);
    if let Some(path) = policy_file {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let policies = policy_io::from_json(&text).map_err(|e| e.to_string())?;
        println!("installed {} polic(ies)", policies.len());
        device.install_policies(policies, packages, PromptHandler::AlwaysDeny);
    }
    if !device.launch(&pkg, &class) {
        return Err(CliError::Failed(format!("could not launch {pkg}/{class}")));
    }
    let delivered = device.run_until_idle();
    println!("processed {delivered} ICC envelope(s)\naudit:");
    let dropped = device.audit.dropped();
    if dropped > 0 {
        println!("  ({dropped} earlier audit events dropped)");
    }
    for e in device.audit.events() {
        println!("  {e:?}");
    }
    if print_stats {
        let hooks = device.hook_stats();
        let decisions = device.pdp().shared().totals();
        let recorded = device.audit.recorded();
        println!("\n{hooks:?}\n{decisions:?}\naudit: {recorded} recorded, {dropped} dropped");
        println!("\nobservability summary:");
        print!("{}", separ::obs::global().snapshot().text_summary());
    }
    Ok(())
}

/// `separ demo`: the whole Figure 1 story in one command.
fn cmd_demo() -> CliResult {
    use separ::android::types::Resource;
    use separ::corpus::motivating;
    separ::obs::global().enable();
    let navigator = motivating::navigator_app();
    let messenger = motivating::messenger_app(false);
    let malicious = motivating::malicious_app("+15550000");
    let report = Separ::new()
        .analyze_apks(&[navigator.clone(), messenger.clone()])
        .map_err(|e| e.to_string())?;
    println!(
        "synthesized {} exploit(s), {} polic(ies)",
        report.exploits.len(),
        report.policies.len()
    );
    let mut unprotected = Device::new(vec![
        navigator.clone(),
        messenger.clone(),
        malicious.clone(),
    ]);
    unprotected.launch("com.navigator", motivating::LOCATION_FINDER);
    unprotected.run_until_idle();
    println!(
        "unprotected: location leaked over SMS = {}",
        unprotected.audit.leaked(Resource::Location, Resource::Sms)
    );
    let mut protected = Device::new(vec![navigator, messenger, malicious]);
    protected.install_policies(
        report.policies,
        report.apps.iter().map(|a| a.package.clone()).collect(),
        PromptHandler::AlwaysDeny,
    );
    protected.launch("com.navigator", motivating::LOCATION_FINDER);
    protected.run_until_idle();
    println!(
        "protected:   location leaked over SMS = {} ({} blocked)",
        protected.audit.leaked(Resource::Location, Resource::Sms),
        protected.audit.blocked_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn analyze_rejects_the_reference_path_flags() {
        // The Tseitin and unsliced paths are library-only references, and
        // symmetry breaking no longer exists: each flag is a usage error,
        // reported before any package is read.
        for flag in ["--symmetry-breaking", "--encoding", "--no-slicing"] {
            let err = cmd_analyze(&strings(&["missing.sdex", flag])).expect_err(flag);
            assert_eq!(err, usage(format!("analyze: unknown option {flag}")));
            assert_eq!(err.exit_code(), 2, "{flag}");
        }
    }

    #[test]
    fn serve_rejects_an_audit_cap_that_overflows_bytes() {
        // 2^54 KiB is 2^64 bytes: it would wrap to 0.
        let err = cmd_serve(&strings(&["--audit-max-kb", "18014398509481984"]))
            .expect_err("overflowing cap");
        assert_eq!(
            err,
            usage("serve: --audit-max-kb: 18014398509481984 KiB overflows a byte count")
        );
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn every_subcommand_exits_2_on_a_usage_error_and_1_on_a_failed_run() {
        type Cmd = fn(&[String]) -> CliResult;
        let usage_errors: [(&str, Cmd, &[&str]); 10] = [
            ("pack", cmd_pack, &[]),
            ("analyze", cmd_analyze, &[]),
            ("analyze", cmd_analyze, &["a.sdex", "--threads", "many"]),
            ("disasm", cmd_disasm, &[]),
            ("enforce", cmd_enforce, &["a.sdex", "--bogus"]),
            ("enforce", cmd_enforce, &["a.sdex", "--launch", "pkg"]),
            ("enforce", cmd_enforce, &["a.sdex", "--threads", "2"]),
            ("serve", cmd_serve, &["--bogus"]),
            ("serve", cmd_serve, &["--queue"]),
            ("serve", cmd_serve, &["--cache-cap-mb", "64"]),
        ];
        for (name, cmd, args) in usage_errors {
            let err = cmd(&strings(args)).expect_err(name);
            assert!(
                matches!(err, CliError::Usage(_)),
                "{name} {args:?}: {err:?}"
            );
            assert_eq!(err.exit_code(), 2, "{name} {args:?}");
        }
        // A valid invocation over a package that does not exist is a
        // failed run.
        let missing = "/nonexistent/missing.sdex";
        for (name, cmd) in [("disasm", cmd_disasm as Cmd), ("analyze", cmd_analyze)] {
            let err = cmd(&strings(&[missing])).expect_err(name);
            assert!(matches!(err, CliError::Failed(_)), "{name}: {err:?}");
            assert_eq!(err.exit_code(), 1, "{name}");
        }
    }
}
