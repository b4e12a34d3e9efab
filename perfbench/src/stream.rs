//! The seeded request streams of the serving workloads: what each unit
//! sends, in which proportions, and the oracle-side session state the
//! `serve_mixed` generator keeps so that every request it emits succeeds.

use crate::oracle::BandState;
use crate::rng::Rng;

/// Variables per served base.
pub const N: usize = 2000;
/// `(name, w)` of the two bases; the chain is the band of width 2.
pub const BASES: [(&str, usize); 2] = [("chain", 2), ("band", 3)];
/// Connections driving load (one thread each).
pub const CONNS: usize = 2;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    Mixed,
    Lanes,
}

impl Workload {
    /// Offered rate of the open-loop phase in units per second (all
    /// connections together), near a third of the closed-loop rate
    /// measured on a 2-core host.
    pub fn rate(self) -> f64 {
        match self {
            Workload::Mixed => 80.0,
            Workload::Lanes => 20.0,
        }
    }

    /// `--batch-window` in microseconds.
    pub fn window_us(self) -> u64 {
        match self {
            Workload::Mixed => 0,
            Workload::Lanes => 100,
        }
    }
}

pub type Lits = Vec<(usize, bool)>;

#[derive(Clone, Debug)]
pub enum Op {
    Query(Lits),
    LogW,
    Pe,
    Marginal(usize),
    Marginals,
    Mpe,
    Entails(Lits),
    Consistent,
    Condition(Lits),
    Retract,
    Setp(usize, f64),
}

#[derive(Clone, Debug)]
pub enum UnitKind {
    /// One `kb` line.
    Line(Op),
    /// One `batch <kb> query … ; …` line.
    Batch(Vec<Lits>),
    /// One `kb <kb> query …` line per query, pipelined.
    Pipelined(Vec<Lits>),
}

#[derive(Clone, Debug)]
pub struct Unit {
    /// Index into [`BASES`].
    pub base: usize,
    pub kind: UnitKind,
}

impl Unit {
    /// Answers the unit returns (a batch line of B queries counts B).
    pub fn answers(&self) -> usize {
        match &self.kind {
            UnitKind::Line(_) => 1,
            UnitKind::Batch(q) | UnitKind::Pipelined(q) => q.len(),
        }
    }

    /// Request lines the unit sends (before its `sync`).
    pub fn lines(&self, conn: usize) -> Vec<String> {
        let kb = conn * BASES.len() + self.base;
        match &self.kind {
            UnitKind::Line(op) => vec![format!("kb {kb} {}", render_op(op))],
            UnitKind::Batch(qs) => {
                let subs: Vec<String> = qs
                    .iter()
                    .map(|q| format!("query {}", render_lits(q)))
                    .collect();
                vec![format!("batch {kb} {}", subs.join(" ; "))]
            }
            UnitKind::Pipelined(qs) => qs
                .iter()
                .map(|q| format!("kb {kb} query {}", render_lits(q)))
                .collect(),
        }
    }
}

fn render_lits(lits: &[(usize, bool)]) -> String {
    let toks: Vec<String> = lits
        .iter()
        .map(|&(v, b)| {
            if b {
                format!("{}", v + 1)
            } else {
                format!("-{}", v + 1)
            }
        })
        .collect();
    toks.join(" ")
}

pub fn render_op(op: &Op) -> String {
    match op {
        Op::Query(l) => format!("query {}", render_lits(l)),
        Op::LogW => "logw".into(),
        Op::Pe => "pe".into(),
        Op::Marginal(v) => format!("marginal {}", v + 1),
        Op::Marginals => "marginals".into(),
        Op::Mpe => "mpe".into(),
        Op::Entails(l) => format!("entails {}", render_lits(l)),
        Op::Consistent => "consistent".into(),
        Op::Condition(l) => format!("condition {}", render_lits(l)),
        Op::Retract => "retract".into(),
        Op::Setp(v, p) => format!("setp {} {p}", v + 1),
    }
}

/// The seeded request stream of one connection. For `serve_mixed` it keeps
/// the oracle's copy of the connection's two sessions, so every `condition`
/// it emits keeps the evidence satisfiable.
pub struct Generator {
    rng: Rng,
    workload: Workload,
    states: Vec<BandState>,
    /// The rest of the current block of `(base, slot)` draws.
    block: Vec<(usize, Slot)>,
}

/// What one unit will be, before its literals are drawn.
#[derive(Copy, Clone, Debug)]
enum Slot {
    Query,
    LogW,
    Pe,
    Marginal,
    Mpe,
    Entails,
    Consistent,
    Condition,
    Retract,
    Setp,
    Marginals,
    /// A burst of `lanes` queries, as one `batch` line or pipelined.
    Burst {
        lanes: usize,
        batch: bool,
    },
}

/// The `serve_mixed` mix per 40 units and base: query 30%, logw/pe 5%,
/// marginal 15%, mpe 10%, entails/consistent 5%, condition/retract 20%,
/// setp 10%, marginals 5%.
const MIXED_BLOCK: [(Slot, usize); 11] = [
    (Slot::Query, 12),
    (Slot::LogW, 1),
    (Slot::Pe, 1),
    (Slot::Marginal, 6),
    (Slot::Mpe, 4),
    (Slot::Entails, 1),
    (Slot::Consistent, 1),
    (Slot::Condition, 4),
    (Slot::Retract, 4),
    (Slot::Setp, 4),
    (Slot::Marginals, 2),
];

/// The `serve_lanes` mix per base: each width in both forms, B = 8 twice
/// as often as B = 64, so the median unit sits inside the B = 8 latencies
/// rather than in the gap between the two widths.
const LANES_BLOCK: [(Slot, usize); 4] = [
    (
        Slot::Burst {
            lanes: 8,
            batch: true,
        },
        2,
    ),
    (
        Slot::Burst {
            lanes: 8,
            batch: false,
        },
        2,
    ),
    (
        Slot::Burst {
            lanes: 64,
            batch: true,
        },
        1,
    ),
    (
        Slot::Burst {
            lanes: 64,
            batch: false,
        },
        1,
    ),
];

impl Generator {
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Generator {
        Generator {
            rng: Rng::new(seed ^ (0x5EED_0000 + conn as u64).wrapping_mul(0x9E37_79B9)),
            workload,
            states: BASES.iter().map(|&(_, w)| BandState::new(N, w)).collect(),
            block: Vec::new(),
        }
    }

    fn lits(&mut self, max: usize) -> Lits {
        let k = 1 + self.rng.below(max);
        (0..k)
            .map(|_| (self.rng.below(N), self.rng.coin()))
            .collect()
    }

    /// The next unit. Units are drawn in shuffled blocks that hold the
    /// workload's mix exactly, once per base, so every stretch of the
    /// stream carries the same proportions whatever the seed.
    pub fn next_unit(&mut self) -> Unit {
        if self.block.is_empty() {
            let mix: &[(Slot, usize)] = match self.workload {
                Workload::Mixed => &MIXED_BLOCK,
                Workload::Lanes => &LANES_BLOCK,
            };
            for base in 0..BASES.len() {
                for &(slot, count) in mix {
                    self.block.extend(std::iter::repeat_n((base, slot), count));
                }
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        let (base, slot) = self.block.pop().expect("block refilled");
        let kind = match slot {
            Slot::Burst { lanes, batch } => {
                let qs: Vec<Lits> = (0..lanes).map(|_| self.lits(3)).collect();
                if batch {
                    UnitKind::Batch(qs)
                } else {
                    UnitKind::Pipelined(qs)
                }
            }
            slot => {
                let op = self.op(base, slot);
                apply(&mut self.states[base], &op);
                UnitKind::Line(op)
            }
        };
        Unit { base, kind }
    }

    fn op(&mut self, base: usize, slot: Slot) -> Op {
        match slot {
            Slot::Query => Op::Query(self.lits(3)),
            Slot::LogW => Op::LogW,
            Slot::Pe => Op::Pe,
            Slot::Marginal => Op::Marginal(self.rng.below(N)),
            Slot::Mpe => Op::Mpe,
            Slot::Entails => Op::Entails(self.lits(3)),
            Slot::Consistent => Op::Consistent,
            Slot::Condition => Op::Condition(self.evidence(base)),
            Slot::Retract => Op::Retract,
            Slot::Setp => Op::Setp(self.rng.below(N), self.rng.prob(0.1, 0.9)),
            Slot::Marginals => Op::Marginals,
            Slot::Burst { .. } => unreachable!("bursts are not lines"),
        }
    }

    /// One or two fresh evidence literals that keep the evidence satisfiable
    /// (a positive literal on a free variable always does).
    fn evidence(&mut self, base: usize) -> Lits {
        let mut st = self.states[base].clone();
        let mut lits = Vec::new();
        for _ in 0..1 + self.rng.below(2) {
            let v = loop {
                let v = self.rng.below(N);
                if st.pins[v] == crate::oracle::Pin::Free {
                    break v;
                }
            };
            let lit = if self.rng.coin() && st.consistent_with(&[(v, false)]) {
                (v, false)
            } else {
                (v, true)
            };
            st.condition(&[lit]);
            lits.push(lit);
        }
        lits
    }
}

/// Apply a state-changing op to the oracle's copy of a session.
pub fn apply(st: &mut BandState, op: &Op) {
    match op {
        Op::Condition(l) => st.condition(l),
        Op::Retract => st.retract(),
        Op::Setp(v, p) => st.set_probability(*v, *p),
        _ => {}
    }
}
