//! Failure oracles: deciding whether a replay attempt manifested the bug.
//!
//! The paper's bugs manifest in three observable ways: crashes/assertion
//! failures, hangs (deadlocks), and **wrong output** — silent corruption
//! that only an external check catches. The first two surface through
//! [`RunStatus`]; wrong output needs an oracle that compares the attempt's
//! observable outputs (stdout, network responses, files) against a known
//! good or known *bad* reference.
//!
//! [`explore::reproduce_with_oracle`](crate::explore::reproduce_with_oracle)
//! accepts any [`FailureOracle`]; the default pipeline uses
//! [`StatusOracle`], which reproduces exactly the paper's
//! crash/assertion/deadlock matching.

use pres_tvm::error::RunStatus;
use pres_tvm::vm::RunOutcome;
use std::collections::BTreeMap;

/// Decides whether an execution manifested the target failure.
pub trait FailureOracle: Send + Sync {
    /// A failure signature if the outcome counts as "the bug", else `None`.
    fn judge(&self, outcome: &RunOutcome) -> Option<String>;
}

/// The default oracle: any failed [`RunStatus`] whose signature matches
/// the production run's.
#[derive(Debug, Clone)]
pub struct StatusOracle {
    /// The production failure signature to match.
    pub target_signature: String,
}

impl StatusOracle {
    /// An oracle matching the given signature.
    pub fn new(target_signature: impl Into<String>) -> Self {
        StatusOracle {
            target_signature: target_signature.into(),
        }
    }
}

impl FailureOracle for StatusOracle {
    fn judge(&self, outcome: &RunOutcome) -> Option<String> {
        match &outcome.status {
            RunStatus::Failed(f) if f.signature() == self.target_signature => {
                Some(f.signature())
            }
            _ => None,
        }
    }
}

/// Wrong-output detection: an execution that *completes* but whose
/// observable outputs differ from a golden (bug-free) reference manifests
/// a silent-corruption bug.
#[derive(Debug, Clone)]
pub struct OutputOracle {
    expected_stdout: Option<Vec<u8>>,
    expected_conn_outputs: Option<Vec<Vec<u8>>>,
    expected_files: Option<BTreeMap<String, Vec<u8>>>,
}

impl OutputOracle {
    /// An oracle with no expectations (judges nothing until configured).
    pub fn new() -> Self {
        OutputOracle {
            expected_stdout: None,
            expected_conn_outputs: None,
            expected_files: None,
        }
    }

    /// Captures every observable output of a golden run as the reference.
    pub fn from_golden(golden: &RunOutcome) -> Self {
        OutputOracle {
            expected_stdout: Some(golden.stdout.clone()),
            expected_conn_outputs: Some(golden.conn_outputs.clone()),
            expected_files: Some(golden.files.clone()),
        }
    }

    /// Expects this exact standard output.
    pub fn expect_stdout(mut self, stdout: impl Into<Vec<u8>>) -> Self {
        self.expected_stdout = Some(stdout.into());
        self
    }

    fn mismatch(&self, outcome: &RunOutcome) -> Option<&'static str> {
        if let Some(stdout) = &self.expected_stdout {
            if &outcome.stdout != stdout {
                return Some("stdout");
            }
        }
        if let Some(conns) = &self.expected_conn_outputs {
            if &outcome.conn_outputs != conns {
                return Some("network responses");
            }
        }
        if let Some(files) = &self.expected_files {
            if &outcome.files != files {
                return Some("files");
            }
        }
        None
    }
}

impl Default for OutputOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl FailureOracle for OutputOracle {
    fn judge(&self, outcome: &RunOutcome) -> Option<String> {
        // Hard failures count too: a run that crashed certainly did not
        // produce the golden output.
        if let RunStatus::Failed(f) = &outcome.status {
            return Some(f.signature());
        }
        if outcome.status != RunStatus::Completed {
            return None; // aborted attempts are inconclusive
        }
        self.mismatch(outcome)
            .map(|what| format!("output-mismatch:{what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ClosureProgram, Program};
    use crate::recorder::run_traced;
    use pres_tvm::prelude::*;

    /// A silently-corrupting program: two workers build an output string;
    /// a racy interleaving reverses the parts, but nothing crashes.
    fn silent_program() -> impl Program {
        let mut spec = ResourceSpec::new();
        let turn = spec.var("turn", 0);
        ClosureProgram::new("silent", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let a = ctx.spawn("a", move |ctx| {
                    // BUG: no ordering with b; whoever runs first prints
                    // first.
                    ctx.println("first");
                    ctx.write(turn, 1);
                });
                let b = ctx.spawn("b", move |ctx| {
                    ctx.println("second");
                    ctx.write(turn, 2);
                });
                ctx.join(a);
                ctx.join(b);
            })
        })
    }

    #[test]
    fn status_oracle_matches_signatures() {
        let mut spec = ResourceSpec::new();
        let _x = spec.var("x", 0);
        let prog = ClosureProgram::new("fail", spec, WorldConfig::default(), || {
            Box::new(|ctx: &mut Ctx| ctx.check(false, "boom"))
        });
        let out = run_traced(&prog, &VmConfig::default(), 0);
        assert_eq!(
            StatusOracle::new("assert:boom").judge(&out),
            Some("assert:boom".to_string())
        );
        assert_eq!(StatusOracle::new("assert:other").judge(&out), None);
    }

    #[test]
    fn output_oracle_detects_silent_reordering() {
        let prog = silent_program();
        let oracle = OutputOracle::new().expect_stdout(b"first\nsecond\n".to_vec());
        let mut good = 0;
        let mut bad = 0;
        for seed in 0..40 {
            let out = run_traced(&prog, &VmConfig::default(), seed);
            assert_eq!(out.status, RunStatus::Completed);
            match oracle.judge(&out) {
                None => good += 1,
                Some(sig) => {
                    assert_eq!(sig, "output-mismatch:stdout");
                    bad += 1;
                }
            }
        }
        assert!(good > 0, "the correct order never happened");
        assert!(bad > 0, "the silent corruption never happened");
    }

    #[test]
    fn golden_reference_captures_all_channels() {
        let prog = silent_program();
        let golden = run_traced(&prog, &VmConfig::default(), 0);
        let oracle = OutputOracle::from_golden(&golden);
        // The golden run judges itself clean.
        assert_eq!(oracle.judge(&golden), None);
        // Some other seed produces the other ordering.
        let mut found = false;
        for seed in 1..40 {
            let out = run_traced(&prog, &VmConfig::default(), seed);
            if oracle.judge(&out).is_some() {
                found = true;
                break;
            }
        }
        assert!(found);
    }
}
