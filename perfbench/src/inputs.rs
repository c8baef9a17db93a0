//! Seeded inputs and the programs the workloads run.
//!
//! Graphs are generated over vertex *labels* `0..n`; a [`VertexKind`]
//! turns labels into values. The same seed and sizes give the same
//! graph for both kinds, so `flat-fixpoint` and `nested-values` differ
//! only in the value representation of the vertices. Random graph shapes
//! are fixed per size (see [`SHAPE_SEED`]).

use crate::rng::Rng;
use uset_bk::{BkObject, BkProgram, BkState};
use uset_deductive::{ColLiteral, ColProgram, ColRule, ColTerm};
use uset_deductive::{DatalogProgram, DlAtom, DlRule, DlTerm};
use uset_object::cons::singleton_chain;
use uset_object::{atom, Atom, Database, Instance, Value};

/// How a vertex label becomes a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexKind {
    /// Label `i` is the atom `i`.
    Atom,
    /// Label `i` is the depth-`i` singleton chain `{…{a}…}`.
    Chain,
}

pub fn vertex_values(kind: VertexKind, n: usize) -> Vec<Value> {
    match kind {
        VertexKind::Atom => (0..n as u64).map(atom).collect(),
        VertexKind::Chain => singleton_chain(Atom::new(0), n),
    }
}

/// A directed graph over labels `0..n`.
#[derive(Clone, Debug)]
pub struct Graph {
    pub n: usize,
    pub edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Number of pairs `(x, y)` with `y` reachable from `x` in one or
    /// more steps: the size of the transitive closure.
    pub fn closure_size(&self) -> usize {
        let adj = self.adjacency();
        (0..self.n).map(|s| reach_from(&adj, s).len()).sum()
    }

    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(a, b) in &self.edges {
            adj[a].push(b);
        }
        adj
    }

    /// The vertex with the most ancestors (ties to the lowest label).
    pub fn most_reached(&self) -> usize {
        let adj = self.adjacency();
        let mut ancestors = vec![0usize; self.n];
        for s in 0..self.n {
            for t in reach_from(&adj, s) {
                ancestors[t] += 1;
            }
        }
        (0..self.n)
            .max_by_key(|&v| (ancestors[v], usize::MAX - v))
            .unwrap_or(0)
    }

    pub fn edge_db(&self, verts: &[Value]) -> Database {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows(
                self.edges
                    .iter()
                    .map(|&(a, b)| [verts[a].clone(), verts[b].clone()]),
            ),
        );
        db
    }
}

fn reach_from(adj: &[Vec<usize>], s: usize) -> Vec<usize> {
    let mut seen = vec![false; adj.len()];
    let mut stack = vec![s];
    let mut out = Vec::new();
    while let Some(u) = stack.pop() {
        for &w in &adj[u] {
            if !seen[w] {
                seen[w] = true;
                out.push(w);
                stack.push(w);
            }
        }
    }
    out
}

/// Seed of the sparse random graphs' shapes. A fresh shape per run
/// moved the work per op by up to 2× between seeds (the closure size
/// and, for maintenance, how many edges sit on the big strongly
/// connected component), which no bound can hold; so each size has one
/// fixed shape, and the run's seed permutes labels and orders the work
/// on it.
pub const SHAPE_SEED: u64 = 0x5eed_0001;

/// The sparse random graph shape for these sizes: `nodes` labels,
/// `edges` distinct non-loop edges, drawn from [`SHAPE_SEED`] until the
/// closure size lies in `closure` (the middle of its distribution).
pub fn sparse_random(nodes: usize, edges: usize, closure: (usize, usize)) -> Graph {
    let mut rng = Rng::new(SHAPE_SEED ^ nodes as u64);
    for _ in 0..100_000 {
        let mut set = std::collections::BTreeSet::new();
        while set.len() < edges {
            let (a, b) = (rng.below(nodes), rng.below(nodes));
            if a != b {
                set.insert((a, b));
            }
        }
        let g = Graph {
            n: nodes,
            edges: set.into_iter().collect(),
        };
        let c = g.closure_size();
        if c >= closure.0 && c <= closure.1 {
            return g;
        }
    }
    panic!("no {nodes}-node graph with closure in {closure:?} after 100000 draws");
}

/// The deductive workloads' graph: a path over `path` vertices plus a
/// disjoint sparse random graph, with every label permuted by the seed.
/// Also returns the two goal vertices: the path's last vertex and the
/// random part's most-reached vertex.
pub fn path_and_random(
    rng: &mut Rng,
    path: usize,
    rand_nodes: usize,
    rand_edges: usize,
    closure: (usize, usize),
) -> (Graph, usize, usize) {
    let n = path + rand_nodes;
    let mut label: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut label);
    let rand = sparse_random(rand_nodes, rand_edges, closure);
    let mut edges: Vec<(usize, usize)> = (0..path.saturating_sub(1))
        .map(|i| (label[i], label[i + 1]))
        .collect();
    edges.extend(
        rand.edges
            .iter()
            .map(|&(a, b)| (label[path + a], label[path + b])),
    );
    let goal_rand = label[path + rand.most_reached()];
    (Graph { n, edges }, label[path - 1], goal_rand)
}

fn v(name: &str) -> DlTerm {
    DlTerm::var(name)
}

fn rule(head: DlAtom, body: Vec<(bool, DlAtom)>) -> DlRule {
    DlRule::new(head, body)
}

fn a2(pred: &str, x: &str, y: &str) -> DlAtom {
    DlAtom::new(pred, vec![v(x), v(y)])
}

/// `T(x,y) ← E(x,y)`, `T(x,z) ← E(x,y), T(y,z)`.
pub fn tc_linear() -> DatalogProgram {
    DatalogProgram::new(vec![
        rule(a2("T", "x", "y"), vec![(true, a2("E", "x", "y"))]),
        rule(
            a2("T", "x", "z"),
            vec![(true, a2("E", "x", "y")), (true, a2("T", "y", "z"))],
        ),
    ])
}

/// `T(x,y) ← E(x,y)`, `T(x,z) ← T(x,y), T(y,z)`.
pub fn tc_nonlinear() -> DatalogProgram {
    DatalogProgram::new(vec![
        rule(a2("T", "x", "y"), vec![(true, a2("E", "x", "y"))]),
        rule(
            a2("T", "x", "z"),
            vec![(true, a2("T", "x", "y")), (true, a2("T", "y", "z"))],
        ),
    ])
}

/// Linear TC plus the vertex set `V` and the stratified complement
/// `U(x,y) ← V(x), V(y), ¬T(x,y)`: a recursive stratum and a
/// non-recursive one above it.
pub fn tc_negation() -> DatalogProgram {
    let mut rules = tc_linear().rules;
    rules.push(rule(
        DlAtom::new("V", vec![v("x")]),
        vec![(true, a2("E", "x", "y"))],
    ));
    rules.push(rule(
        DlAtom::new("V", vec![v("y")]),
        vec![(true, a2("E", "x", "y"))],
    ));
    rules.push(rule(
        a2("U", "x", "y"),
        vec![
            (true, DlAtom::new("V", vec![v("x")])),
            (true, DlAtom::new("V", vec![v("y")])),
            (false, a2("T", "x", "y")),
        ],
    ));
    DatalogProgram::new(rules)
}

/// COL TC plus reachability sets `F(x) ∋ y ← T(x,y)` materialized as
/// tuples `P([x, F(x)]) ← E(x,y)`.
pub fn col_setheavy() -> ColProgram {
    let c = ColTerm::var;
    ColProgram::new(vec![
        ColRule::pred(
            "T",
            vec![c("x"), c("y")],
            vec![ColLiteral::pred("E", vec![c("x"), c("y")])],
        ),
        ColRule::pred(
            "T",
            vec![c("x"), c("z")],
            vec![
                ColLiteral::pred("E", vec![c("x"), c("y")]),
                ColLiteral::pred("T", vec![c("y"), c("z")]),
            ],
        ),
        ColRule::func_member(
            "F",
            vec![c("x")],
            c("y"),
            vec![ColLiteral::pred("T", vec![c("x"), c("y")])],
        ),
        ColRule::pred(
            "P",
            vec![ColTerm::Tuple(vec![
                c("x"),
                ColTerm::Apply("F".into(), vec![c("x")]),
            ])],
            vec![ColLiteral::pred("E", vec![c("x"), c("y")])],
        ),
    ])
}

/// BK Example 5.2 input: `R1[A,B]` and `R2[B,C]` with `n` tuples each
/// and no shared `B` value, so the join is empty while the BK rule still
/// derives a cross product. Atom labels are drawn from the seed.
pub fn bk_join_input(rng: &mut Rng, n: usize) -> (BkProgram, BkState) {
    let mut labels: Vec<u64> = (0..4 * n as u64).collect();
    rng.shuffle(&mut labels);
    let pair = |a: &'static str, x: u64, b: &'static str, y: u64| {
        BkObject::tuple([(a, BkObject::atom(x)), (b, BkObject::atom(y))])
    };
    let r1: Vec<BkObject> = (0..n)
        .map(|i| pair("A", labels[i], "B", labels[n + i]))
        .collect();
    let r2: Vec<BkObject> = (0..n)
        .map(|i| pair("B", labels[2 * n + i], "C", labels[3 * n + i]))
        .collect();
    (
        BkProgram::join_rule(),
        uset_bk::eval::state_from([("R1", r1), ("R2", r2)]),
    )
}

/// Total facts held by a database (every relation).
pub fn fact_count(db: &Database) -> u64 {
    db.iter().map(|(_, inst)| inst.len() as u64).sum()
}
