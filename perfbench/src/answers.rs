//! Known answers that do not come from any engine.
//!
//! The corpus table is written by hand from the paper (FORWARD, INITCHECK
//! and PARTITION are the safe programs of Figures 1–3; BUGGY_INITCHECK is
//! the failing variant of §6; the §3 worked example FIGURE4 reaches its
//! error location along `ρ0 ρ1 ρ2 ρ3 ρ0 ρ3 ρ4`), from the `safe` flag of each
//! suite entry, and from the header comment of each committed `.pinv`
//! sample.  Generated programs carry their own oracle-certified answer
//! (`GeneratedProgram::expected`).

use pathinv_bench::generator::{Expected, GeneratedProgram};

/// Whether the named corpus program is safe, or `None` for a name the
/// table does not cover (a new corpus entry must be added here by hand).
pub fn corpus_safe(name: &str) -> Option<bool> {
    let safe = match name {
        // The paper's figures.
        "FORWARD" | "INITCHECK" | "PARTITION" => true,
        "BUGGY_INITCHECK" | "FIGURE4" => false,
        // Suite entries (`SuiteEntry::safe`).
        "suite/sum_counter"
        | "suite/lockstep"
        | "suite/double_counter"
        | "suite/forward"
        | "suite/init_check"
        | "suite/init_const" => true,
        "suite/init_backward_bug" | "suite/counter_off_by_one_bug" => false,
        // `.pinv` samples: the header comments state the answer.
        "pinv/rational_cex_parity" | "pinv/half_integer_bug" => true,
        "pinv/array_reset_bug" => false,
        // The two demo sources of the serve corpus: `x = 3` then
        // `assert(x == 3)` holds, `assert(x == 4)` fails.
        "demo/assign_safe" => true,
        "demo/assign_bug" => false,
        _ => return None,
    };
    Some(safe)
}

/// The oracle's answer for a generated program.
pub fn generated_safe(program: &GeneratedProgram) -> bool {
    matches!(program.expected, Expected::Safe)
}
