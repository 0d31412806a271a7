//! Execute pass: numerics only, behind the [`ExecBackend`] seam.
//!
//! [`SimBackend`] is the reference step (`Engine::exec_phase`) run
//! phase by phase with its tally discarded: warps in order, ops in
//! program order, same-phase race detection, lowest-warp error first —
//! exactly the state [`Engine::run`] leaves behind. Cycles are the cost
//! pass's business, so the tally is thrown away rather than priced.

use super::backend::{BackendKind, ExecBackend, ExecOutcome};
use super::PlannedKernel;
use crate::cost::PhaseTally;
use crate::engine::{BlockState, Engine};
use crate::error::SimError;
use crate::memory::global::GlobalMemory;

/// The reference execution backend: the reference interpreter with
/// cycle accounting dropped. Every phase runs through
/// `Engine::exec_phase`, so there is no fast path to fall back from.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl ExecBackend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn execute(
        &self,
        engine: &Engine<'_>,
        plan: &PlannedKernel<'_>,
        gmem: &mut GlobalMemory,
    ) -> Result<ExecOutcome, SimError> {
        let mut state = BlockState::new(engine.device, plan.kernel);
        for phase in 0..plan.phases {
            let mut tally = PhaseTally::default();
            engine.exec_phase(plan, phase, gmem, &mut state, &mut tally, None)?;
        }
        Ok(ExecOutcome::reference(plan.phases))
    }
}

impl<'a> Engine<'a> {
    /// Execute pass through a selectable [`ExecBackend`]. Every backend
    /// leaves bit-identical state; the returned [`ExecOutcome`] reports
    /// which paths the phases took.
    pub fn execute_with(
        &self,
        backend: BackendKind,
        plan: &PlannedKernel<'_>,
        gmem: &mut GlobalMemory,
    ) -> Result<ExecOutcome, SimError> {
        backend.backend().execute(self, plan, gmem)
    }
}
