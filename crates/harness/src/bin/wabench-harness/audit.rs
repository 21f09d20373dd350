//! `wabench-harness audit`: static range-analysis audit over the
//! benchmark suite.
//!
//! Every suite program is compiled at each requested WaCC opt level,
//! lowered to the register IR, and analyzed: the report gives, per
//! module, the runtime safety checks found, how many the aggressive JIT
//! tier eliminates (each elimination carries a proof obligation), the
//! residual checks, blocks the analysis proves unreachable, sites proven
//! to *always* trap at the declared minimum memory, and constant-address
//! accesses (foldable loads). After elimination every proof obligation is
//! independently re-derived by `jit::verify::check_proofs`; any rejection
//! is a soundness violation and fails the run.
//!
//! Exit status: `0` clean, `1` on verifier violations or an unmet
//! `--min-eliminated` floor, `2` on compile errors.

use analysis::range::AuditFacts;
use engines::jit::{lower, opt, verify};
use harness::report::Report;
use obs::cli::{self, Args, Command, Flag};
use wacc::OptLevel;

#[rustfmt::skip]
pub const COMMAND: Command = Command::new("audit", &[
    Flag::value("--bench", "NAME", "audit one benchmark (default: all)"),
    crate::LEVEL,
    Flag::switch("--md", "print the markdown report"),
    Flag::value("--min-eliminated", "N", "fail when fewer checks are eliminated"),
]);

struct ModuleAudit {
    funcs: usize,
    facts: AuditFacts,
    eliminated: u64,
    violations: Vec<String>,
}

/// Lowers, audits, optimizes, and re-verifies every function of `module`.
fn audit_module(module: &wasm_core::Module) -> Result<ModuleAudit, String> {
    let module_rc = std::rc::Rc::new(module.clone());
    let config = engines::jit::Tier::Llvm.pass_config();
    let mut out = ModuleAudit {
        funcs: module.funcs.len(),
        facts: AuditFacts::default(),
        eliminated: 0,
        violations: Vec::new(),
    };
    for (i, f) in module.funcs.iter().enumerate() {
        let mut rf = lower::lower(&module_rc, f).map_err(|e| format!("func {i}: {e:?}"))?;
        // Audit the unoptimized lowering: these are the checks the
        // module *has*; elimination below reports what the JIT removes.
        let facts = verify::audit_rfunc(&rf);
        out.facts.blocks += facts.blocks;
        out.facts.unreachable_blocks += facts.unreachable_blocks;
        out.facts.checks_total += facts.checks_total;
        out.facts.checks_provable += facts.checks_provable;
        out.facts.always_trapping += facts.always_trapping;
        out.facts.const_addr_loads += facts.const_addr_loads;
        let stats = opt::optimize(&mut rf, &config);
        out.eliminated += stats.checks_eliminated;
        for v in verify::check_proofs(&rf) {
            out.violations.push(format!("func {i}: {v}"));
        }
    }
    Ok(out)
}

/// `audit`: every (benchmark, level) module, or the `--bench`/`--level` ones.
pub fn run(a: &Args) {
    let benches: Vec<&suite::Benchmark> = match a.opt("--bench", "a benchmark name", cli::text) {
        Some(name) => match suite::by_name(&name) {
            Some(b) => vec![b],
            None => a.fail(format!("--bench: no benchmark named {name:?}")),
        },
        None => suite::all().iter().collect(),
    };
    let levels = match a.opt("--level", "a level O0..O3", OptLevel::parse) {
        Some(level) => vec![level],
        None => OptLevel::all().to_vec(),
    };
    let min_eliminated: Option<u64> = a.opt("--min-eliminated", "an integer", cli::number);

    let mut report = Report::new(
        "audit",
        "audit: static checks and JIT check elimination",
        vec![
            "bench".into(),
            "level".into(),
            "funcs".into(),
            "checks".into(),
            "eliminated".into(),
            "residual".into(),
            "unreachable-blocks".into(),
            "always-trapping".into(),
            "const-addr".into(),
        ],
    );

    let mut modules = 0u64;
    let mut total_checks = 0u64;
    let mut total_eliminated = 0u64;
    let mut violations = 0u64;
    let mut errors = 0u64;
    for b in benches {
        for &level in &levels {
            let bytes = match b.compile(level) {
                Ok(bytes) => bytes,
                Err(e) => {
                    eprintln!("{} {level}: compile error: {e}", b.name);
                    errors += 1;
                    continue;
                }
            };
            let module = match wasm_core::decode::decode(&bytes) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{} {level}: decode error: {e:?}", b.name);
                    errors += 1;
                    continue;
                }
            };
            let audit = match audit_module(&module) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{} {level}: {e}", b.name);
                    errors += 1;
                    continue;
                }
            };
            modules += 1;
            total_checks += audit.facts.checks_total;
            total_eliminated += audit.eliminated;
            violations += audit.violations.len() as u64;
            for v in &audit.violations {
                eprintln!("{} {level}: VIOLATION: {v}", b.name);
            }
            let residual = audit.facts.checks_total.saturating_sub(audit.eliminated);
            report.row(vec![
                b.name.to_string(),
                level.to_string(),
                audit.funcs.to_string(),
                audit.facts.checks_total.to_string(),
                audit.eliminated.to_string(),
                residual.to_string(),
                audit.facts.unreachable_blocks.to_string(),
                audit.facts.always_trapping.to_string(),
                audit.facts.const_addr_loads.to_string(),
            ]);
        }
    }

    report.note(format!(
        "{modules} module(s) audited: {total_checks} check(s), \
         {total_eliminated} eliminated with proofs, {violations} violation(s)"
    ));
    if a.on("--md") {
        print!("{}", report.to_markdown());
    } else {
        eprintln!(
            "audit: {modules} module(s), {total_checks} check(s), \
             {total_eliminated} eliminated, {violations} violation(s)"
        );
    }

    if errors > 0 {
        std::process::exit(2);
    }
    if violations > 0 {
        eprintln!("audit: {violations} proof violation(s)");
        std::process::exit(1);
    }
    if let Some(floor) = min_eliminated {
        if total_eliminated < floor {
            eprintln!("audit: eliminated {total_eliminated} < required floor {floor}");
            std::process::exit(1);
        }
    }
}
