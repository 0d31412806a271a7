//! The execution-backend seam of the plan → cost → execute pipeline.
//!
//! The plan and cost passes are pure analysis: they validate a kernel
//! and price its communication without touching matrix data. The
//! execute pass is the only consumer of [`GlobalMemory`] values — which
//! makes it swappable. An [`ExecBackend`] implements just that pass
//! against a [`PlannedKernel`]; everything above it (cycle accounting,
//! plan caches, scheduling, serving) is backend-agnostic.
//!
//! Two executors exist, and two backends ship:
//!
//! * [`SimBackend`](super::exec::SimBackend) — the reference
//!   interpreter: `Engine::exec_phase`, the one per-phase step that
//!   defines op semantics, with race detection and lowest-warp error
//!   order. [`Engine::run`](crate::engine::Engine::run) is the same step
//!   with its tally priced, so Sim numerics and the reference run are
//!   one code path.
//! * [`NativeBackend`](super::native::NativeBackend) — the fast
//!   executor: host-speed microkernels that replay each phase in the
//!   same warp order, so accumulation order — and therefore bits — are
//!   identical. Phases a static race analysis cannot clear go through
//!   the reference step, so races and faults surface with the same
//!   errors.
//!
//! The contract every backend must honor (what `ExecParity` checks):
//! bit-identical global-buffer contents, identical global traffic
//! counters, and identical `SimError`s (same variant, same message,
//! same lowest-warp ordering) on every kernel.

use super::PlannedKernel;
use crate::engine::Engine;
use crate::error::SimError;
use crate::memory::global::GlobalMemory;
use serde::{Deserialize, Serialize};

/// Which execution backend computes the numbers. Plan and cost passes
/// are unaffected by this choice; only the execute pass dispatches on
/// it. Defaults to [`BackendKind::Sim`], the reference interpreter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum BackendKind {
    /// Reference interpreter with race detection.
    #[default]
    Sim,
    /// Host-speed per-precision microkernels, bit-identical to `Sim`.
    Native,
}

// Hand-written so configurations serialized before the backend seam
// existed still deserialize: the vendored serde hands `Null` for a
// missing field, which must resolve to the reference simulator.
impl Deserialize for BackendKind {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        match v {
            serde::Value::Null => Ok(BackendKind::Sim),
            serde::Value::String(s) => match s.as_str() {
                "Sim" => Ok(BackendKind::Sim),
                "Native" => Ok(BackendKind::Native),
                other => Err(format!("unknown variant `{other}` for BackendKind")),
            },
            _ => Err("expected a string for BackendKind".into()),
        }
    }
}

impl BackendKind {
    /// All backends, in conformance-sweep order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Native];

    /// Stable lowercase label (CLI flags, bench JSON, metrics).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        }
    }

    /// The backend implementation behind this kind.
    pub fn backend(self) -> &'static (dyn ExecBackend + Sync) {
        match self {
            BackendKind::Sim => &super::exec::SimBackend,
            BackendKind::Native => &super::native::NativeBackend,
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sim" => Ok(BackendKind::Sim),
            "native" => Ok(BackendKind::Native),
            other => Err(format!("unknown backend '{other}' (expected sim|native)")),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What one execute-pass run did: which backend ran and how its phases
/// split between the backend's fast path and the reference step.
/// Numerics are identical either way — this is observability, not
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecOutcome {
    /// Backend that executed the kernel.
    pub backend: BackendKind,
    /// Total barrier-delimited phases executed.
    pub phases: usize,
    /// Phases through the backend's fast path (the lean microkernel
    /// loop for `Native`; `Sim` has none).
    pub fast_phases: usize,
    /// Phases through the reference step (every phase on `Sim`; on
    /// `Native`, the phases that need the race detector).
    pub fallback_phases: usize,
}

impl ExecOutcome {
    /// A `Sim` run: every phase through the reference step.
    pub(crate) fn reference(phases: usize) -> Self {
        ExecOutcome {
            backend: BackendKind::Sim,
            phases,
            fast_phases: 0,
            fallback_phases: phases,
        }
    }

    /// A run of no phases on `backend` — what a result computed without
    /// a kernel reports, and the starting point of [`ExecOutcome::merge`].
    pub fn empty(backend: BackendKind) -> Self {
        ExecOutcome {
            backend,
            phases: 0,
            fast_phases: 0,
            fallback_phases: 0,
        }
    }

    /// The phase counts of two runs on the same backend, summed: how a
    /// result assembled from several kernels (k-split chunks, batch
    /// entries) reports its execution.
    pub fn merge(self, other: ExecOutcome) -> Self {
        debug_assert_eq!(self.backend, other.backend, "merged runs share a backend");
        ExecOutcome {
            backend: self.backend,
            phases: self.phases + other.phases,
            fast_phases: self.fast_phases + other.fast_phases,
            fallback_phases: self.fallback_phases + other.fallback_phases,
        }
    }
}

/// One execution backend: the execute pass behind a fixed seam.
///
/// Implementations must leave `gmem` (buffer contents *and* traffic
/// counters) bit-identical to what [`SimBackend`](super::exec::SimBackend)
/// leaves, and fail with identical [`SimError`]s on faulting kernels —
/// the `ExecParity` verify check holds every backend to this bar over
/// the full grid.
pub trait ExecBackend {
    /// Which kind this backend is.
    fn kind(&self) -> BackendKind;

    /// Run the planned kernel's numerics against `gmem`.
    fn execute(
        &self,
        engine: &Engine<'_>,
        plan: &PlannedKernel<'_>,
        gmem: &mut GlobalMemory,
    ) -> Result<ExecOutcome, SimError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_labels() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.label().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.backend().kind(), kind);
        }
        assert!("cuda".parse::<BackendKind>().is_err());
    }

    #[test]
    fn default_is_sim() {
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    #[test]
    fn serde_is_stable() {
        let j = serde_json::to_string(&BackendKind::Native).unwrap();
        assert_eq!(j, "\"Native\"");
        assert_eq!(
            serde_json::from_str::<BackendKind>(&j).unwrap(),
            BackendKind::Native
        );
    }
}
