//! Reproduction certificates: "reproduce once, reproduce every time".
//!
//! The first successful replay attempt yields the complete scheduling
//! decision sequence of a failing execution. Packaged with the expected
//! failure signature, that sequence is a *certificate*: replaying it through
//! a scripted scheduler reproduces the identical execution — and therefore
//! the identical failure — deterministically, every time. This is the
//! paper's closing property: PRES pays the search cost once.

use crate::codec::{ByteReader, ByteWriter, DecodeError};
use pres_tvm::error::RunStatus;
use pres_tvm::ids::ThreadId;
use pres_tvm::sched::ScriptedScheduler;
use pres_tvm::trace::{NullObserver, TraceMode};
use pres_tvm::vm::{self, RunOutcome, VmConfig};
use std::fmt;

use crate::oracle::{FailureOracle, StatusOracle};
use crate::program::Program;

/// A deterministic reproduction certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The program this certificate replays.
    pub program: String,
    /// The exact scheduling decision sequence of the failing execution.
    pub schedule: Vec<ThreadId>,
    /// The failure signature the replay must produce.
    pub expected_signature: String,
    /// Processor count used when the certificate was minted (timing only).
    pub processors: u32,
}

/// Certificate verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// The replay ended without the expected failure.
    WrongOutcome {
        /// What the replay produced instead.
        got: String,
        /// What the certificate promised.
        expected: String,
    },
    /// The certificate names a different program.
    ProgramMismatch {
        /// Name in the certificate.
        expected: String,
        /// Name of the supplied program.
        got: String,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::WrongOutcome { got, expected } => {
                write!(f, "certificate replay produced '{got}', expected '{expected}'")
            }
            CertificateError::ProgramMismatch { expected, got } => {
                write!(f, "certificate is for program '{expected}', got '{got}'")
            }
        }
    }
}

impl std::error::Error for CertificateError {}

impl Certificate {
    /// Replays the certificate against `program`, verifying that the
    /// expected failure manifests. Returns the full (traced) outcome so the
    /// developer can inspect the failing execution.
    pub fn replay(&self, program: &dyn Program) -> Result<RunOutcome, CertificateError> {
        self.replay_with(program, &StatusOracle::new(self.expected_signature.clone()))
    }

    /// As [`Certificate::replay`], with an explicit failure oracle — needed
    /// for certificates minted by
    /// [`crate::explore::reproduce_with_oracle`] over output-mismatch
    /// oracles, where the "failure" is a wrong result, not a crash.
    pub fn replay_with(
        &self,
        program: &dyn Program,
        oracle: &dyn FailureOracle,
    ) -> Result<RunOutcome, CertificateError> {
        if program.name() != self.program {
            return Err(CertificateError::ProgramMismatch {
                expected: self.program.clone(),
                got: program.name(),
            });
        }
        let mut sched = ScriptedScheduler::new(self.schedule.clone());
        let body = program.root();
        let out = vm::run(
            VmConfig {
                processors: self.processors,
                trace_mode: TraceMode::Full,
                world: program.world(),
                ..VmConfig::default()
            },
            program.resources(),
            &mut sched,
            &mut NullObserver,
            move |ctx| body(ctx),
        );
        match oracle.judge(&out) {
            Some(got) if got == self.expected_signature => Ok(out),
            Some(got) => Err(CertificateError::WrongOutcome {
                got,
                expected: self.expected_signature.clone(),
            }),
            None => {
                // Render the most precise "what happened instead".
                let got = match &out.status {
                    RunStatus::Failed(f) => f.signature(),
                    other => other.to_string(),
                };
                Err(CertificateError::WrongOutcome {
                    got,
                    expected: self.expected_signature.clone(),
                })
            }
        }
    }

    /// Serializes the certificate to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.string(&self.program);
        w.string(&self.expected_signature);
        w.varint(u64::from(self.processors));
        w.varint(self.schedule.len() as u64);
        // Delta-friendly: thread ids are tiny; plain varints are compact.
        for t in &self.schedule {
            w.varint(u64::from(t.0));
        }
        w.finish()
    }

    /// Deserializes a certificate. The schedule count is bounded by the
    /// bytes that remain before anything is sized by it, an id that does
    /// not fit a `u32` is refused rather than truncated, and nothing may
    /// follow the schedule.
    pub fn decode(data: &[u8]) -> Result<Certificate, DecodeError> {
        fn u32_varint(r: &mut ByteReader<'_>, what: &str) -> Result<u32, DecodeError> {
            let v = r.varint()?;
            u32::try_from(v).map_err(|_| r.err(&format!("{what} out of range")))
        }
        let mut r = ByteReader::new(data);
        let program = r.string()?;
        let expected_signature = r.string()?;
        let processors = u32_varint(&mut r, "processor count")?;
        let n = r.count(1, "schedule")?;
        let mut schedule = Vec::with_capacity(n);
        for _ in 0..n {
            schedule.push(ThreadId(u32_varint(&mut r, "thread id")?));
        }
        if !r.at_end() {
            return Err(r.err("trailing bytes"));
        }
        Ok(Certificate {
            program,
            schedule,
            expected_signature,
            processors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ClosureProgram;
    use pres_tvm::prelude::*;

    fn racy_program() -> impl Program {
        let mut spec = ResourceSpec::new();
        let x = spec.var("x", 0);
        ClosureProgram::new("racy", spec, WorldConfig::default(), move || {
            Box::new(move |ctx: &mut Ctx| {
                let t = ctx.spawn("w", move |ctx| {
                    let v = ctx.read(x);
                    ctx.compute(20);
                    ctx.write(x, v + 1);
                });
                let v = ctx.read(x);
                ctx.compute(20);
                ctx.write(x, v + 1);
                ctx.join(t);
                let total = ctx.read(x);
                ctx.check(total == 2, "lost update");
            })
        })
    }

    fn failing_schedule(prog: &dyn Program) -> (Vec<ThreadId>, String) {
        for seed in 0..500 {
            let body = prog.root();
            let out = pres_tvm::vm::run(
                VmConfig::default(),
                prog.resources(),
                &mut RandomScheduler::new(seed),
                &mut NullObserver,
                move |ctx| body(ctx),
            );
            if let RunStatus::Failed(f) = &out.status {
                return (out.schedule, f.signature());
            }
        }
        panic!("no failing seed found");
    }

    #[test]
    fn certificate_reproduces_every_time() {
        let prog = racy_program();
        let (schedule, signature) = failing_schedule(&prog);
        let cert = Certificate {
            program: prog.name(),
            schedule,
            expected_signature: signature,
            processors: 4,
        };
        for _ in 0..20 {
            let out = cert.replay(&prog).expect("certificate must reproduce");
            assert!(out.status.is_failed());
        }
    }

    #[test]
    fn certificate_rejects_wrong_program() {
        let prog = racy_program();
        let (schedule, signature) = failing_schedule(&prog);
        let cert = Certificate {
            program: "something-else".into(),
            schedule,
            expected_signature: signature,
            processors: 4,
        };
        match cert.replay(&prog) {
            Err(CertificateError::ProgramMismatch { .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn certificate_detects_non_reproduction() {
        let prog = racy_program();
        let (schedule, _) = failing_schedule(&prog);
        let cert = Certificate {
            program: prog.name(),
            schedule,
            expected_signature: "assert:some other bug".into(),
            processors: 4,
        };
        match cert.replay(&prog) {
            Err(CertificateError::WrongOutcome { got, .. }) => {
                assert_eq!(got, "assert:lost update");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn certificate_encoding_round_trips() {
        let cert = Certificate {
            program: "httpd".into(),
            schedule: vec![ThreadId(0), ThreadId(1), ThreadId(0), ThreadId(2)],
            expected_signature: "deadlock:1,3".into(),
            processors: 8,
        };
        let bytes = cert.encode();
        let decoded = Certificate::decode(&bytes).unwrap();
        assert_eq!(cert, decoded);
        assert_eq!(decoded.encode(), bytes);
        // The widest ids a certificate can carry survive the trip.
        let wide = Certificate {
            schedule: vec![ThreadId(u32::MAX)],
            processors: u32::MAX,
            ..cert
        };
        assert_eq!(Certificate::decode(&wide.encode()).unwrap(), wide);
    }

    /// A certificate's bytes with the given processor varint, schedule
    /// count and tid varints, followed by `trailer`.
    fn raw(processors: u64, count: u64, tids: &[u64], trailer: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.string("p");
        w.string("s");
        w.varint(processors);
        w.varint(count);
        for &t in tids {
            w.varint(t);
        }
        let mut bytes = w.finish();
        bytes.extend_from_slice(trailer);
        bytes
    }

    fn decode_error(bytes: &[u8]) -> String {
        Certificate::decode(bytes).unwrap_err().message
    }

    #[test]
    fn a_schedule_count_past_the_input_is_refused_before_allocating() {
        assert!(Certificate::decode(&raw(1, 2, &[0, 1], &[])).is_ok());
        // Ten bytes that claim 2^32 - 1 schedule slots.
        let hostile = raw(1, u64::from(u32::MAX), &[], &[]);
        assert_eq!(hostile.len(), 10);
        assert!(decode_error(&hostile).contains("schedule count past eof"));
        assert!(decode_error(&raw(1, u64::MAX, &[], &[])).contains("schedule count"));
        assert!(decode_error(&raw(1, 3, &[0, 1], &[])).contains("schedule count"));
    }

    #[test]
    fn ids_above_u32_are_refused_not_truncated() {
        // `1 << 32` would alias 0 under `as u32`: two byte strings, one
        // certificate.
        assert!(decode_error(&raw(1, 1, &[1 << 32], &[])).contains("thread id out of range"));
        assert!(decode_error(&raw(1 << 32, 0, &[], &[])).contains("processor count out of range"));
        assert!(Certificate::decode(&raw(1, 1, &[u64::from(u32::MAX)], &[])).is_ok());
    }

    #[test]
    fn trailing_bytes_are_refused() {
        assert!(decode_error(&raw(1, 1, &[0], &[0])).contains("trailing bytes"));
        let mut bytes = Certificate {
            program: "p".into(),
            schedule: vec![ThreadId(1)],
            expected_signature: "s".into(),
            processors: 2,
        }
        .encode();
        bytes.push(7);
        assert!(decode_error(&bytes).contains("trailing bytes"));
    }

    #[test]
    fn truncated_certificate_fails_to_decode() {
        let cert = Certificate {
            program: "p".into(),
            schedule: vec![ThreadId(0); 10],
            expected_signature: "s".into(),
            processors: 1,
        };
        let bytes = cert.encode();
        assert!(Certificate::decode(&bytes[..bytes.len() - 3]).is_err());
    }
}
