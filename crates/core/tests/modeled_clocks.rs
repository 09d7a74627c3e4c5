//! Modeled-clock regression: the Simgrid step tables of a fixed seeded
//! multiply are pinned bit-for-bit.
//!
//! Kernel-side speedups (moving single-part merges through instead of
//! re-hashing them, sorting in place, assembling the gathered `C`
//! directly) must not move a single modeled second or byte: the paper's
//! per-step breakdowns are computed from the kernels' `WorkStats` work
//! units and the collectives' byte counts, so any drift there is a
//! behaviour change, not an optimisation. Each case below records the
//! critical-path (max over ranks) seconds, as `f64::to_bits`, and bytes of
//! every step that is nonzero; every other step must stay exactly zero.

use spgemm_core::{run_spgemm, BackendKind, KernelStrategy, MergeSchedule, OverlapMode, RunConfig};
use spgemm_simgrid::clock::ALL_STEPS;
use spgemm_simgrid::StepBreakdown;
use spgemm_sparse::gen::rmat;
use spgemm_sparse::semiring::PlusTimesF64;

/// One pinned configuration and its expected nonzero steps:
/// `(label, secs bits, bytes)`.
struct Case {
    name: &'static str,
    p: usize,
    l: usize,
    batches: Option<usize>,
    kernels: KernelStrategy,
    schedule: MergeSchedule,
    overlap: OverlapMode,
    golden: &'static [(&'static str, u64, u64)],
}

fn nonzero_steps(bd: &StepBreakdown) -> Vec<(&'static str, u64, u64)> {
    ALL_STEPS
        .iter()
        .filter(|&&s| bd.secs_of(s) != 0.0 || bd.bytes_of(s) != 0)
        .map(|&s| (s.label(), bd.secs_of(s).to_bits(), bd.bytes_of(s)))
        .collect()
}

fn render(steps: &[(&'static str, u64, u64)]) -> String {
    steps
        .iter()
        .map(|(label, secs, bytes)| format!("        ({label:?}, {secs:#018x}, {bytes}),\n"))
        .collect()
}

const CASES: &[Case] = &[
    Case {
        name: "p1-l1-symbolic",
        p: 1,
        l: 1,
        batches: None,
        kernels: KernelStrategy::New,
        schedule: MergeSchedule::AfterAllStages,
        overlap: OverlapMode::Blocking,
        golden: &[
            ("Symbolic-Comm", 0x0000000000000000, 57376),
            ("Symbolic-Comp", 0x3ed9e543e70a90a8, 0),
            ("A-Bcast", 0x0000000000000000, 28656),
            ("B-Bcast", 0x0000000000000000, 28656),
            ("Local-Multiply", 0x3eecd91f8c583369, 0),
            ("Merge-Fiber", 0x3efe1207a63c3421, 0),
        ],
    },
    Case {
        name: "p1-l1-b3",
        p: 1,
        l: 1,
        batches: Some(3),
        kernels: KernelStrategy::New,
        schedule: MergeSchedule::AfterAllStages,
        overlap: OverlapMode::Blocking,
        golden: &[
            ("A-Bcast", 0x0000000000000000, 85968),
            ("B-Bcast", 0x0000000000000000, 28656),
            ("Local-Multiply", 0x3eecd91f8c58336a, 0),
            ("Merge-Fiber", 0x3efe1207a63c341f, 0),
        ],
    },
    Case {
        name: "p4-l1-symbolic",
        p: 4,
        l: 1,
        batches: None,
        kernels: KernelStrategy::New,
        schedule: MergeSchedule::AfterAllStages,
        overlap: OverlapMode::Blocking,
        golden: &[
            ("Symbolic-Comm", 0x3f3b96225a8cad3e, 41872),
            ("Symbolic-Comp", 0x3ec9ea7614429667, 0),
            ("A-Bcast", 0x3f0a71f1340a48b0, 20880),
            ("B-Bcast", 0x3f0a7529d645cff0, 20928),
            ("Local-Multiply", 0x3edceece296e386d, 0),
            ("Merge-Layer", 0x3ecd1af073c87c31, 0),
            ("Merge-Fiber", 0x3ee74d2493afe6ee, 0),
            ("Other", 0x3f1f75104d551d69, 0),
            ("Wait", 0x3f07b8c953800e50, 0),
        ],
    },
    Case {
        name: "p4-l4-symbolic",
        p: 4,
        l: 4,
        batches: None,
        kernels: KernelStrategy::New,
        schedule: MergeSchedule::AfterAllStages,
        overlap: OverlapMode::Blocking,
        golden: &[
            ("Symbolic-Comm", 0x3f34f93ef942aa27, 30664),
            ("Symbolic-Comp", 0x3ed354f7c4e3e60a, 0),
            ("A-Bcast", 0x0000000000000000, 15120),
            ("B-Bcast", 0x0000000000000000, 15480),
            ("Local-Multiply", 0x3ee5e5656adebc03, 0),
            ("AllToAll-Fiber", 0x3f217de7f37ffb20, 75576),
            ("Merge-Fiber", 0x3eeabc1ea5241892, 0),
            ("Other", 0x3f1f75104d551d69, 0),
            ("Wait", 0x3ef9862e88ff5ce4, 0),
        ],
    },
    Case {
        name: "p16-l16-b3",
        p: 16,
        l: 16,
        batches: Some(3),
        kernels: KernelStrategy::New,
        schedule: MergeSchedule::AfterAllStages,
        overlap: OverlapMode::Blocking,
        golden: &[
            ("A-Bcast", 0x0000000000000000, 22464),
            ("B-Bcast", 0x0000000000000000, 8016),
            ("Local-Multiply", 0x3edf88eb85aeba4e, 0),
            ("AllToAll-Fiber", 0x3f5013ab4ff1d238, 64056),
            ("Merge-Fiber", 0x3ed9ea1501c5fdeb, 0),
            ("Other", 0x3f2f75104d551d69, 0),
            ("Wait", 0x3eeca52c10429090, 0),
        ],
    },
    Case {
        name: "p16-l4-b3-overlapped",
        p: 16,
        l: 4,
        batches: Some(3),
        kernels: KernelStrategy::New,
        schedule: MergeSchedule::AfterAllStages,
        overlap: OverlapMode::Overlapped,
        golden: &[
            ("A-Bcast", 0x3f16fd0a0f053932, 32976),
            ("B-Bcast", 0x3ef4c71181fd0ab0, 10992),
            ("Local-Multiply", 0x3ed5e2b3b23cf1ed, 0),
            ("Merge-Layer", 0x3ec95e0dc01fd8fe, 0),
            ("AllToAll-Fiber", 0x3f2bb92a3ed40c6f, 34368),
            ("Merge-Fiber", 0x3ed4b45526891de9, 0),
            ("Other", 0x3f2f75104d551d69, 0),
            ("Wait", 0x3f049c3cfe9b71dc, 0),
        ],
    },
    Case {
        name: "p4-l4-b3-incremental",
        p: 4,
        l: 4,
        batches: Some(3),
        kernels: KernelStrategy::New,
        schedule: MergeSchedule::Incremental,
        overlap: OverlapMode::Blocking,
        golden: &[
            ("A-Bcast", 0x0000000000000000, 45360),
            ("B-Bcast", 0x0000000000000000, 15480),
            ("Local-Multiply", 0x3ee5e5656adebc04, 0),
            ("AllToAll-Fiber", 0x3f306b18630975dc, 74496),
            ("Merge-Fiber", 0x3eec5b35d54fab83, 0),
            ("Other", 0x3f1f75104d551d69, 0),
            ("Wait", 0x3ef5fc91f45df0fc, 0),
        ],
    },
    Case {
        name: "p4-l1-previous",
        p: 4,
        l: 1,
        batches: None,
        kernels: KernelStrategy::Previous,
        schedule: MergeSchedule::AfterAllStages,
        overlap: OverlapMode::Blocking,
        golden: &[
            ("Symbolic-Comm", 0x3f3b96225a8cad3e, 41872),
            ("Symbolic-Comp", 0x3ec9ea7614429667, 0),
            ("A-Bcast", 0x3f0a71f1340a48b0, 20880),
            ("B-Bcast", 0x3f0a7529d645cff0, 20928),
            ("Local-Multiply", 0x3eebac3cba887bbe, 0),
            ("Merge-Layer", 0x3eda8ca0ba4cc505, 0),
            ("Merge-Fiber", 0x3ed58d763b0b093c, 0),
            ("Other", 0x3f1f75104d551d69, 0),
            ("Wait", 0x3f0929ec8dd8ba00, 0),
        ],
    },
];

#[test]
fn modeled_step_tables_are_pinned() {
    let a = rmat::<PlusTimesF64>(8, 6, None, false, 0x5EED);
    let mut failures = String::new();
    for case in CASES {
        let mut cfg = RunConfig::new(case.p, case.l);
        cfg.backend = BackendKind::Simgrid;
        cfg.kernels = case.kernels;
        cfg.forced_batches = case.batches;
        cfg.merge_schedule = case.schedule;
        cfg.overlap = case.overlap;
        let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &a).expect("pinned run");
        let got = nonzero_steps(&out.max);
        if got != case.golden {
            failures.push_str(&format!("{}:\n{}", case.name, render(&got)));
        }
    }
    assert!(
        failures.is_empty(),
        "modeled step tables drifted; actual values:\n{failures}"
    );
}
