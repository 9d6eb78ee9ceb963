//! Analysis-gated code generation.
//!
//! The analyzer's contract with the rest of the toolchain: error-severity
//! diagnostics mean the artifact will panic, hang, or violate a design
//! constraint at runtime, so the checked printer refuses to hand it
//! onward.

use crate::analyze_program;
use crate::diag::Diagnostics;
use wsn_synth::{render_figure4, GuardedProgram};

/// Renders a program in the paper's Figure-4 notation after analyzing
/// it. An error-bearing program is refused with its diagnostics instead
/// of rendered.
pub fn render_figure4_checked(
    program: &GuardedProgram,
) -> Result<(String, Diagnostics), Diagnostics> {
    let diags = analyze_program(program);
    if diags.has_errors() {
        return Err(diags);
    }
    Ok((render_figure4(program), diags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_synth::synthesize_quadtree_program;

    #[test]
    fn clean_program_renders_with_diagnostics_attached() {
        let p = synthesize_quadtree_program(2);
        let (text, diags) = render_figure4_checked(&p).unwrap();
        assert!(text.contains("msgsReceived"));
        assert_eq!(diags.error_count(), 0);
    }

    #[test]
    fn broken_program_is_refused_then_forced_through() {
        let mut p = synthesize_quadtree_program(2);
        p.rules[0].actions.push(wsn_synth::Action::Set(
            "ghost".into(),
            wsn_synth::Expr::Int(1),
        ));
        let diags = render_figure4_checked(&p).unwrap_err();
        assert!(diags.has_errors());
    }
}
