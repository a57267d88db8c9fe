//! The decorators must be invisible: with every layer timed, each workload
//! produces byte-identical normalized reports and adversary views to an
//! undecorated run of the same inputs, and the traced spans show that the
//! defaulted view and index methods really were forwarded.

use perfbench::trace::ReadPath;
use perfbench::workloads::{run_epoch, Inputs, Mode, Scale, Workload};
use std::path::Path;
use std::time::Instant;

fn scratch_root() -> &'static Path {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
}

#[test]
fn decorated_runs_are_byte_identical_to_undecorated_runs() {
    for workload in Workload::ALL {
        let inputs = Inputs::generate(workload, Scale::tiny(workload), 7);
        let plain = run_epoch(&inputs, Mode::Plain, scratch_root(), Instant::now())
            .expect("undecorated epoch runs");
        let traced = run_epoch(&inputs, Mode::Traced, scratch_root(), Instant::now())
            .expect("traced epoch runs");

        let normalized = |epoch: &perfbench::workloads::Epoch| -> Vec<String> {
            epoch
                .observed
                .reports
                .iter()
                .map(|r| format!("{:?}", r.clone().map(|r| r.normalized())))
                .collect()
        };
        assert_eq!(
            normalized(&plain),
            normalized(&traced),
            "{}: reports differ with the decorators on",
            workload.name()
        );
        assert_eq!(
            format!("{:?}", plain.observed.view),
            format!("{:?}", traced.observed.view),
            "{}: adversary view differs with the decorators on",
            workload.name()
        );

        let spans = &traced.spans;
        let count = |path: ReadPath| spans.client_reads.iter().filter(|r| r.path == path).count();
        match workload {
            Workload::DurableViews => assert!(count(ReadPath::View) > 0, "views were not read"),
            Workload::AnalystReadsTcp => {
                assert!(count(ReadPath::Index) > 0, "indexes were not read")
            }
            Workload::FleetTcp => {
                assert!(count(ReadPath::Scan) > 0, "nothing was queried");
                // A strategy decorator that fell back on the dense
                // `next_wake` default would tick every owner every tick.
                let owners: usize = inputs.slices.iter().map(|s| s.owners.len()).sum();
                assert!(
                    (spans.on_tick_ns.len() as u64) < owners as u64 * inputs.horizon / 2,
                    "the sparse scheduler's next_wake path is not live"
                );
            }
        }
        // Every client call reached the engine under the same match key.
        for w in &spans.client_writes {
            assert!(
                spans.engine_writes.contains_key(&(w.table.clone(), w.time)),
                "{}: unmatched write {}@{}",
                workload.name(),
                w.table,
                w.time
            );
        }
        for r in &spans.client_reads {
            assert!(
                spans.engine_reads.contains_key(&(r.key.clone(), r.seq)),
                "{}: unmatched read {}#{}",
                workload.name(),
                r.key,
                r.seq
            );
        }
        assert!(!spans.on_tick_ns.is_empty(), "strategies were not timed");
        assert!(
            !spans.append_ns.is_empty(),
            "backend appends were not timed"
        );
    }
}
