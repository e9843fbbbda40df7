//! Seeded workload inputs.  Everything a run feeds the engine is generated
//! here, from the one `--seed`, before any timer starts.

use daisy_common::{Result, Value};
use daisy_data::errors::{inject_fd_errors, inject_inequality_errors};
use daisy_data::ssb::{generate_lineorder, generate_supplier, SsbConfig};
use daisy_expr::{DenialConstraint, FunctionalDependency};
use daisy_storage::Table;

/// The inequality DC of the paper's Fig. 10.
pub const PRICE_DISCOUNT_DC: &str =
    "t1.extended_price < t2.extended_price & t1.discount > t2.discount";

/// A small deterministic generator (SplitMix64) for query parameters.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent sub-seed for one generator from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// The inputs of one explore workload: dirty tables, rules and the SQL an
/// analyst sends, in order.
pub struct ExploreInputs {
    pub tables: Vec<Table>,
    pub fds: Vec<(FunctionalDependency, &'static str)>,
    pub dcs: Vec<DenialConstraint>,
    pub requests: Vec<String>,
    /// Rows of the fact table (the scale the growth diagnostic doubles).
    pub rows: usize,
}

fn sorted_column(table: &Table, column: &str) -> Result<Vec<Value>> {
    let mut values = table.column_values(column)?;
    values.sort();
    Ok(values)
}

fn literal(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("{f:?}"),
        other => other.to_string(),
    }
}

/// `explore_rules`: one dirty `lineorder` under the FD orderkey → suppkey
/// (every orderkey group dirty, 10% of each group edited) and the Fig. 10
/// price/discount DC (2% of tuples perturbed).  The analyst mixes narrow
/// extended_price and suppkey ranges with a `GROUP BY suppkey` over the
/// whole table every sixth query.
pub fn explore_rules(seed: u64, rows: usize, queries: usize) -> Result<ExploreInputs> {
    let config = SsbConfig {
        lineorder_rows: rows,
        distinct_orderkeys: (rows / 10).max(1),
        distinct_suppkeys: 100,
        seed: sub_seed(seed, 1),
        ..SsbConfig::default()
    };
    let mut lineorder = generate_lineorder(&config)?;
    inject_fd_errors(
        &mut lineorder,
        "orderkey",
        "suppkey",
        1.0,
        0.1,
        sub_seed(seed, 2),
    )?;
    inject_inequality_errors(
        &mut lineorder,
        "extended_price",
        "discount",
        0.02,
        0.3,
        sub_seed(seed, 3),
    )?;
    let prices = sorted_column(&lineorder, "extended_price")?;
    let mut rng = Rng::new(sub_seed(seed, 4));
    let window = (prices.len() / 50).max(1);
    // A cycle of six: four price ranges, one suppkey range, one GROUP BY.
    // Price ranges are the majority so the median request sits inside
    // their latency mode instead of between modes.
    let requests = (0..queries)
        .map(|i| match i % 6 {
            1 => {
                let lo = rng.below(99);
                format!(
                    "SELECT orderkey, suppkey FROM lineorder WHERE suppkey >= {lo} AND suppkey <= {}",
                    lo + 1
                )
            }
            4 => "SELECT suppkey, COUNT(*) FROM lineorder GROUP BY suppkey".to_string(),
            _ => {
                let start = rng.below(prices.len() - window);
                format!(
                    "SELECT orderkey, extended_price, discount FROM lineorder \
                     WHERE extended_price >= {} AND extended_price <= {}",
                    literal(&prices[start]),
                    literal(&prices[start + window])
                )
            }
        })
        .collect();
    Ok(ExploreInputs {
        tables: vec![lineorder],
        fds: vec![(FunctionalDependency::new(&["orderkey"], "suppkey"), "phi")],
        dcs: vec![DenialConstraint::parse("dc", PRICE_DISCOUNT_DC)?],
        requests,
        rows,
    })
}

/// `explore_joins`: the Fig. 11 chain.  `lineorder` under φ orderkey →
/// suppkey and `supplier` under ψ address → suppkey; the analyst joins
/// them on suppkey over narrow, non-overlapping orderkey ranges that
/// together cover the domain, in a seeded order.
pub fn explore_joins(seed: u64, rows: usize, queries: usize) -> Result<ExploreInputs> {
    let config = SsbConfig {
        lineorder_rows: rows,
        distinct_orderkeys: (rows / 10).max(1),
        distinct_suppkeys: 200,
        seed: sub_seed(seed, 1),
        ..SsbConfig::default()
    };
    let mut lineorder = generate_lineorder(&config)?;
    let mut supplier = generate_supplier(&config)?;
    inject_fd_errors(
        &mut lineorder,
        "orderkey",
        "suppkey",
        1.0,
        0.1,
        sub_seed(seed, 2),
    )?;
    inject_fd_errors(
        &mut supplier,
        "address",
        "suppkey",
        0.5,
        0.2,
        sub_seed(seed, 3),
    )?;
    let keys = config.distinct_orderkeys;
    let mut order: Vec<usize> = (0..queries).collect();
    Rng::new(sub_seed(seed, 4)).shuffle(&mut order);
    let requests = order
        .into_iter()
        .map(|i| {
            let lo = i * keys / queries;
            let hi = ((i + 1) * keys / queries).saturating_sub(1).max(lo);
            format!(
                "SELECT lineorder.orderkey, lineorder.suppkey, supplier.address FROM lineorder \
                 JOIN supplier ON lineorder.suppkey = supplier.suppkey \
                 WHERE lineorder.orderkey >= {lo} AND lineorder.orderkey <= {hi}"
            )
        })
        .collect();
    Ok(ExploreInputs {
        tables: vec![lineorder, supplier],
        fds: vec![
            (FunctionalDependency::new(&["orderkey"], "suppkey"), "phi"),
            (FunctionalDependency::new(&["address"], "suppkey"), "psi"),
        ],
        dcs: Vec::new(),
        requests,
        rows,
    })
}

/// One client request of `durable_service`.
pub enum ServiceOp {
    Select(String),
    Ingest(Vec<Vec<Value>>),
}

/// The inputs of `durable_service`: the initial dirty `lineorder`, its FD,
/// and one request script per client.
pub struct ServiceInputs {
    pub table: Table,
    pub fd: FunctionalDependency,
    pub scripts: Vec<Vec<ServiceOp>>,
}

/// `durable_service`: a dirty `lineorder` of `rows` rows under φ; each of
/// `clients` scripts alternates a suppkey-stripe `SELECT` with an ingest
/// batch of `batch` fresh rows drawn from the same dirty distribution (so
/// ingested rows join existing orderkey groups and violate φ).
pub fn durable_service(
    seed: u64,
    rows: usize,
    clients: usize,
    steps: usize,
    batch: usize,
) -> Result<ServiceInputs> {
    let ingested = clients * steps.div_ceil(2) * batch;
    let config = SsbConfig {
        lineorder_rows: rows + ingested,
        distinct_orderkeys: (rows / 10).max(1),
        distinct_suppkeys: 100,
        seed: sub_seed(seed, 1),
        ..SsbConfig::default()
    };
    let mut all = generate_lineorder(&config)?;
    inject_fd_errors(&mut all, "orderkey", "suppkey", 1.0, 0.1, sub_seed(seed, 2))?;
    let mut values: Vec<Vec<Value>> = all
        .tuples()
        .iter()
        .map(|t| t.cells.iter().map(|c| c.expected_value()).collect())
        .collect();
    let pool = values.split_off(rows);
    let table = Table::from_rows("lineorder", (**all.schema()).clone(), values)?;
    let mut batches = pool.chunks(batch).map(<[Vec<Value>]>::to_vec);
    let mut rng = Rng::new(sub_seed(seed, 3));
    let stripes = 25usize;
    let scripts = (0..clients)
        .map(|_| {
            let mut stripe = rng.below(stripes);
            (0..steps)
                .map(|step| {
                    if step % 2 == 0 {
                        stripe = (stripe + 1 + rng.below(3)) % stripes;
                        let lo = stripe * 4;
                        ServiceOp::Select(format!(
                            "SELECT orderkey, suppkey FROM lineorder \
                             WHERE suppkey >= {lo} AND suppkey <= {}",
                            lo + 3
                        ))
                    } else {
                        ServiceOp::Ingest(batches.next().expect("pool sized for every batch"))
                    }
                })
                .collect()
        })
        .collect();
    Ok(ServiceInputs {
        table,
        fd: FunctionalDependency::new(&["orderkey"], "suppkey"),
        scripts,
    })
}
