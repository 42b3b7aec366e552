//! Environment hygiene: the workspace reads several `MILO_*` variables
//! that change how much work a run does (the CI match oracle rescans
//! every conflict set, fault injection fails passes, tracing records
//! spans, the pool size sets parallelism, the daemon's defaults set its
//! cache). The benchmark fixes all of them before any library code runs.

/// Pool size (threads including the caller) every run uses, so figures
/// do not depend on how many cores the host offers.
pub const PAR_THREADS: &str = "2";

/// Variables cleared before a run.
const CLEARED: [&str; 3] = ["MILO_MATCH_ORACLE", "MILO_FAULT_INJECT", "MILO_TRACE"];

/// Clears or pins every variable the workspace reads and returns a line
/// describing what was changed. Must run before any thread is spawned.
pub fn fix_environment() -> String {
    let mut changed = Vec::new();
    let serve: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MILO_SERVE_"))
        .collect();
    for key in CLEARED.iter().map(|k| k.to_string()).chain(serve) {
        if let Some(old) = std::env::var_os(&key) {
            changed.push(format!("{key} cleared (was {old:?})"));
            std::env::remove_var(&key);
        }
    }
    match std::env::var_os("MILO_PAR_THREADS") {
        Some(old) if old.to_str() == Some(PAR_THREADS) => {}
        Some(old) => changed.push(format!("MILO_PAR_THREADS={PAR_THREADS} (was {old:?})")),
        None => {}
    }
    std::env::set_var("MILO_PAR_THREADS", PAR_THREADS);
    format!(
        "env: MILO_PAR_THREADS={PAR_THREADS} MILO_MATCH_ORACLE=unset MILO_FAULT_INJECT=unset \
         MILO_TRACE=unset MILO_SERVE_*=unset; changed: {}",
        if changed.is_empty() {
            "nothing".to_owned()
        } else {
            changed.join(", ")
        }
    )
}
