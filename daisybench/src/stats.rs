//! Order statistics, digests and process probes shared by every workload.

use daisy_storage::{ProvenanceStore, Table};
use daisy_wal::{Encoder, PersistedWorld};

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail latency of one sample: the highest percentile that leaves at
/// least ten samples beyond it, i.e. the eleventh-largest sample.  Returns
/// the value and the percentile it sits at; with ten or fewer samples the
/// maximum is reported at percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 10 {
        return (sorted.last().copied().unwrap_or(0.0), 100.0);
    }
    let rank = n - 11;
    (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

/// The run's tail latency: the median, over the run's chains (or rounds),
/// of each one's [`tail`].  Pooling every request of a run instead puts the
/// tail at about p99, where a few requests caught by a burst of load on the
/// host decide it; per chain it moved about as much as the median did.
/// Returns the value and a line naming the percentile and sample counts.
pub fn chain_tail(per_chain: &[Vec<f64>], unit: &str) -> (f64, String) {
    let tails: Vec<(f64, f64)> = per_chain.iter().map(|v| tail(v)).collect();
    let value = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    let pct = median(&tails.iter().map(|t| t.1).collect::<Vec<_>>());
    let samples = median(&per_chain.iter().map(|v| v.len() as f64).collect::<Vec<_>>());
    let note = format!(
        "request_tail_ms is the median over {} {unit}s of each {unit}'s p{pct:.2} \
         ({samples} requests per {unit}, 10 beyond the percentile)",
        per_chain.len()
    );
    (value, note)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A digest of a query result: its schema and tuples, cells, candidate
/// probabilities and lineage included.
pub fn result_digest(result: &daisy_query::QueryResult) -> u64 {
    fnv1a(format!("{:?}|{:?}", result.schema, result.tuples).as_bytes())
}

/// The canonical byte encoding of a world (version, tables sorted by name,
/// provenance sorted by table) in the write-ahead log's checkpoint format.
pub fn world_bytes(
    version: u64,
    mut tables: Vec<Table>,
    mut provenance: Vec<(String, ProvenanceStore)>,
) -> Vec<u8> {
    tables.sort_by(|a, b| a.name().cmp(b.name()));
    provenance.sort_by(|a, b| a.0.cmp(&b.0));
    let world = PersistedWorld {
        version,
        tables,
        provenance,
    };
    let mut encoder = Encoder::new();
    world.encode(&mut encoder);
    encoder.into_bytes()
}

/// The process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
