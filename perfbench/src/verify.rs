//! Verification: every epoch is replayed from the same inputs in-process, on
//! a memory backend, with views and indexes off, and the replay must match
//! what the measured epoch produced.
//!
//! * `fleet_tcp`, `durable_views`: byte-identical normalized reports and
//!   adversary views.  Views and the transport must be invisible.
//! * `analyst_reads_tcp`: the `AllowIndexedVolume` policy declares indexed
//!   fetch volumes in the query transcript by design, so there the released
//!   answers and the update events must be identical (as in the
//!   `index_equivalence` suite).

use crate::workloads::{master_key, Inputs, Observed, Workload};
use dpsync_core::metrics::SimulationReport;
use dpsync_core::simulation::Simulation;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;

/// Replays `inputs` slice by slice against `engine` (which must be fresh)
/// with views and indexes off.
pub fn replay(inputs: &Inputs, engine: &dyn SecureOutsourcedDatabase) -> Observed {
    let master = master_key();
    let reports = inputs
        .slices
        .iter()
        .map(|slice| {
            Simulation::new(slice.sim.config().clone())
                .run_sparse(&slice.owners, inputs.horizon, engine, &master, |_| {
                    inputs.workload.strategy()
                })
                .map_err(|e| e.to_string())
        })
        .collect();
    Observed {
        reports,
        view: engine.adversary_view(),
    }
}

/// The reference an epoch of `inputs` must match.
pub fn reference(inputs: &Inputs) -> Observed {
    let engine = inputs.workload.engine_kind().build(&master_key());
    replay(inputs, engine.as_ref())
}

/// Checks `observed` against `reference`; the error says what differs.
pub fn compare(
    workload: Workload,
    observed: &Observed,
    reference: &Observed,
) -> Result<(), String> {
    if observed.reports.len() != reference.reports.len() {
        return Err("report count differs".into());
    }
    for (i, (o, r)) in observed.reports.iter().zip(&reference.reports).enumerate() {
        let (o, r) = match (o, r) {
            (Ok(o), Ok(r)) => (o.clone().normalized(), r.clone().normalized()),
            (Err(e), _) => return Err(format!("slice {i} failed: {e}")),
            (_, Err(e)) => return Err(format!("reference slice {i} failed: {e}")),
        };
        let same = match workload {
            Workload::AnalystReadsTcp => same_answers(&o, &r),
            Workload::FleetTcp | Workload::DurableViews => o == r,
        };
        if !same {
            return Err(format!("slice {i}: report differs from the reference"));
        }
    }
    let (o, r) = (&observed.view, &reference.view);
    let same_view = match workload {
        Workload::AnalystReadsTcp => {
            o.update_events() == r.update_events()
                && o.total_ciphertext_bytes() == r.total_ciphertext_bytes()
        }
        Workload::FleetTcp | Workload::DurableViews => o == r,
    };
    if !same_view {
        return Err("adversary view differs from the reference".into());
    }
    Ok(())
}

/// Everything but the estimated QET, which an indexed read reports from its
/// own cost.
fn same_answers(o: &SimulationReport, r: &SimulationReport) -> bool {
    let answers = |s: &SimulationReport| {
        s.query_samples
            .iter()
            .map(|q| (q.time, q.query.clone(), q.l1_error.to_bits()))
            .collect::<Vec<_>>()
    };
    o.strategy == r.strategy
        && o.engine == r.engine
        && o.epsilon == r.epsilon
        && o.size_samples == r.size_samples
        && o.sync_count == r.sync_count
        && o.horizon == r.horizon
        && answers(o) == answers(r)
}
