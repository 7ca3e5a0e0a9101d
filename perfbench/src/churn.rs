//! The churn plan of the churn rounds and the warehouse mutations it
//! applies.
//!
//! Round `i` changes one column's values in table A, adds a column to
//! table B, drops a column from table C, drops table D and adds a copy
//! of table E under a new name. Before applying its own mutations a
//! round reverts those of round `i - 1` to the base corpus, so the
//! warehouse after round `i` depends on `i` alone: the plan is a cycle,
//! and every pass over it bills exactly the same scans.

use wg_store::{Column, Table, Value, Warehouse};
use wg_util::rng::{Rng64, Xoshiro256pp};

use crate::stats::permutation;

/// Tables one round mutates (A, B, C, D); E is only read.
pub const TOUCHED_PER_ROUND: usize = 4;

/// Share of rows whose value a "change values" mutation rewrites.
const CHANGED_ROW_SHARE: f64 = 0.1;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    /// Table whose column values change.
    pub change_values: usize,
    /// Table that gains a column.
    pub add_column: usize,
    /// Table that loses a column.
    pub drop_column: usize,
    /// Table dropped for this round.
    pub drop_table: usize,
    /// Base table copied into the round's new table.
    pub copy_source: usize,
    /// Seed of the rewritten rows, the new column and the dropped column.
    pub value_seed: u64,
}

impl RoundPlan {
    pub fn touched(&self) -> [usize; TOUCHED_PER_ROUND] {
        [self.change_values, self.add_column, self.drop_column, self.drop_table]
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnPlan {
    pub rounds: Vec<RoundPlan>,
    /// Tables no round touches: their cached embeddings stay warm.
    pub untouched: Vec<usize>,
}

/// Seed of the table schedule. Which tables a round touches does not
/// depend on the run's seed, so every seed churns the same tables and
/// the sync figures of two seeds measure the same amount of work; the
/// run's seed decides what changes inside them.
const SCHEDULE_SEED: u64 = 0x5C4E_D01E;

/// Tables the schedule leaves alone, for reads that stay warm.
const UNTOUCHED: usize = 2;

impl ChurnPlan {
    /// One cycle over `tables` base tables: a fixed permutation of the
    /// tables is cut into groups of four, one group per round, leaving
    /// [`UNTOUCHED`] tables out. Consecutive rounds (cyclically) therefore
    /// touch disjoint tables, so every sync's change set is known exactly.
    pub fn generate(tables: usize, seed: u64) -> Self {
        let rounds = tables.saturating_sub(UNTOUCHED) / TOUCHED_PER_ROUND;
        assert!(rounds >= 2, "a churn cycle needs at least two rounds");
        let order = permutation(tables, &mut Xoshiro256pp::new(SCHEDULE_SEED));
        let mut rng = Xoshiro256pp::new(seed ^ 0xC4_0A11);
        let rounds: Vec<RoundPlan> = (0..rounds)
            .map(|i| {
                let g = &order[TOUCHED_PER_ROUND * i..TOUCHED_PER_ROUND * (i + 1)];
                RoundPlan {
                    change_values: g[0],
                    add_column: g[1],
                    drop_column: g[2],
                    drop_table: g[3],
                    copy_source: order[(TOUCHED_PER_ROUND * (i + 1)) % tables],
                    value_seed: rng.gen_u64(),
                }
            })
            .collect();
        let untouched = order[TOUCHED_PER_ROUND * rounds.len()..].to_vec();
        Self { rounds, untouched }
    }

    pub fn len(&self) -> usize {
        self.rounds.len()
    }
}

/// Name of the table round `i` adds.
pub fn added_table_name(i: usize) -> String {
    format!("churn_{i}")
}

/// Name of the column round `i` adds to its table B.
pub const ADDED_COLUMN: &str = "churn_col";

/// Rewrite a seeded tenth of a column's rows, keeping its type.
fn change_values(column: &Column, seed: u64) -> Column {
    let mut rng = Xoshiro256pp::new(seed);
    let values: Vec<Value> = column
        .iter()
        .map(|v| {
            let v = v.to_owned();
            if !rng.gen_bool(CHANGED_ROW_SHARE) {
                return v;
            }
            match v {
                Value::Text(s) => Value::Text(format!("{s} rev{}", rng.gen_range(1000))),
                Value::Int(x) => Value::Int(x.wrapping_add(1_000_003)),
                Value::Float(x) => Value::Float(x + 0.5),
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
            }
        })
        .collect();
    Column::from_values(column.name(), &values)
}

fn with_changed_column(table: &Table, name: &str, seed: u64) -> Table {
    let target = (seed % table.num_columns() as u64) as usize;
    let columns: Vec<Column> = table
        .columns()
        .iter()
        .enumerate()
        .map(|(j, c)| if j == target { change_values(c, seed) } else { c.clone() })
        .collect();
    Table::new(name, columns).expect("same shape as a valid table")
}

/// Apply round `i`'s mutations to `warehouse`, reading original content
/// from `base` (the corpus's tables in catalog order).
pub fn apply(warehouse: &mut Warehouse, db: &str, base: &[Table], plan: &ChurnPlan, i: usize) {
    let r = &plan.rounds[i];
    let d = warehouse.database_mut(db);
    let a = &base[r.change_values];
    d.add_table(with_changed_column(a, a.name(), r.value_seed));

    let b = &base[r.add_column];
    let mut rng = Xoshiro256pp::new(r.value_seed ^ 0xB);
    let added = Column::text(
        ADDED_COLUMN,
        (0..b.num_rows()).map(|_| format!("churn token {}", rng.gen_range(500))),
    );
    d.add_table(b.clone().with_column(added).expect("row counts match"));

    let c = &base[r.drop_column];
    let gone = (r.value_seed >> 8) as usize % c.num_columns();
    let kept: Vec<Column> = c
        .columns()
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != gone)
        .map(|(_, c)| c.clone())
        .collect();
    d.add_table(Table::new(c.name(), kept).expect("subset of a valid table"));

    d.remove_table(base[r.drop_table].name()).expect("dropped table is present");

    let e = &base[r.copy_source];
    d.add_table(with_changed_column(e, &added_table_name(i), r.value_seed.rotate_left(17)));
}

/// Undo round `i`'s mutations, restoring the base content.
pub fn revert(warehouse: &mut Warehouse, db: &str, base: &[Table], plan: &ChurnPlan, i: usize) {
    let r = &plan.rounds[i];
    let d = warehouse.database_mut(db);
    for t in r.touched() {
        d.add_table(base[t].clone());
    }
    d.remove_table(&added_table_name(i)).expect("added table is present");
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_store::Database;

    fn base() -> Vec<Table> {
        (0..20)
            .map(|t| {
                Table::new(
                    format!("t{t}"),
                    vec![
                        Column::text("a", (0..50).map(|i| format!("v{t} {i}")).collect::<Vec<_>>()),
                        Column::ints("b", (0..50).collect()),
                        Column::text(
                            "c",
                            (0..50).map(|i| format!("w{}", i % 7)).collect::<Vec<_>>(),
                        ),
                    ],
                )
                .unwrap()
            })
            .collect()
    }

    fn warehouse(base: &[Table]) -> Warehouse {
        let mut w = Warehouse::new("w");
        let mut d = Database::new("db");
        for t in base {
            d.add_table(t.clone());
        }
        w.add_database(d);
        w
    }

    fn snapshot(w: &Warehouse) -> Vec<(String, String, u64)> {
        let mut m: Vec<(String, String, u64)> =
            w.table_metas().into_iter().map(|m| (m.database, m.table, m.version)).collect();
        m.sort();
        m
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let a = ChurnPlan::generate(46, 5);
        assert_eq!(a, ChurnPlan::generate(46, 5));
        let b = ChurnPlan::generate(46, 6);
        assert_ne!(a, b, "the seed decides what changes");
        let tables = |p: &ChurnPlan| p.rounds.iter().map(RoundPlan::touched).collect::<Vec<_>>();
        assert_eq!(tables(&a), tables(&b), "the table schedule is the same for every seed");
        assert_eq!((a.len(), a.untouched.len()), (11, 2));
    }

    #[test]
    fn consecutive_rounds_touch_disjoint_tables() {
        for seed in 0..5 {
            let plan = ChurnPlan::generate(20, seed);
            for i in 0..plan.len() {
                let mine = plan.rounds[i].touched();
                let prev = plan.rounds[(i + plan.len() - 1) % plan.len()].touched();
                let mut all = mine.to_vec();
                all.sort_unstable();
                all.dedup();
                assert_eq!(all.len(), TOUCHED_PER_ROUND, "seed {seed} round {i}");
                assert!(mine.iter().all(|t| !prev.contains(t)), "seed {seed} round {i}");
                assert!(mine.iter().all(|t| !plan.untouched.contains(t)), "seed {seed} round {i}");
            }
        }
    }

    #[test]
    fn state_after_a_round_depends_on_the_round_alone() {
        let base = base();
        let plan = ChurnPlan::generate(base.len(), 9);
        let mut w = warehouse(&base);
        let pristine = snapshot(&w);
        apply(&mut w, "db", &base, &plan, 0);
        let after_round0 = snapshot(&w);
        assert_ne!(after_round0, pristine);
        for i in 1..plan.len() {
            revert(&mut w, "db", &base, &plan, i - 1);
            apply(&mut w, "db", &base, &plan, i);
        }
        revert(&mut w, "db", &base, &plan, plan.len() - 1);
        assert_eq!(snapshot(&w), pristine, "a full cycle returns to the base");
        apply(&mut w, "db", &base, &plan, 0);
        assert_eq!(snapshot(&w), after_round0);
    }

    #[test]
    fn round_mutations_have_the_planned_shape() {
        let base = base();
        let plan = ChurnPlan::generate(base.len(), 1);
        let r = &plan.rounds[0];
        let mut w = warehouse(&base);
        apply(&mut w, "db", &base, &plan, 0);
        let db = w.database("db").unwrap();
        assert!(db.table(base[r.drop_table].name()).is_err());
        assert_eq!(db.table(base[r.add_column].name()).unwrap().num_columns(), 4);
        assert_eq!(db.table(base[r.drop_column].name()).unwrap().num_columns(), 2);
        let changed = db.table(base[r.change_values].name()).unwrap();
        assert_ne!(changed.columns(), base[r.change_values].columns());
        assert_eq!(db.table(&added_table_name(0)).unwrap().num_columns(), 3);
    }
}
