//! Disk cache for similarity graphs, backed by the on-disk CSR store.
//!
//! The experiment harness sweeps hundreds of `(partitions, rounds, α)`
//! configurations over the *same* k-NN graph; rebuilding a 50 k-point exact
//! graph each time would dominate the run. The cache persists the graph
//! plus its aligned utility vector as one `submod_core::store` file keyed
//! by an experiment-chosen name, and loads it back **memory-mapped**: a
//! cache hit costs one validation sweep instead of a rebuild, the CSR
//! arrays stay out of the process heap, and every shard of a distributed
//! run shares the same read-only mapping.
//!
//! Files written by the pre-store cache format (magic `SUBMODG1`) fail
//! validation with [`submod_core::GraphError::BadMagic`] and are rebuilt
//! transparently by [`load_or_build`].

use crate::KnnError;
use std::fs;
use std::path::{Path, PathBuf};
use submod_core::SimilarityGraph;

/// Returns the default cache directory (`target/graph-cache` under the
/// workspace, or the system temp dir as fallback).
pub fn default_cache_dir() -> PathBuf {
    let target = Path::new("target");
    if target.exists() {
        target.join("graph-cache")
    } else {
        std::env::temp_dir().join("submod-graph-cache")
    }
}

/// Saves a graph and its aligned utility vector under `path` as a store
/// file.
///
/// # Errors
///
/// Returns an error if the file cannot be written or the utilities do not
/// align with the graph (count mismatch or non-finite values).
pub fn save_graph(path: &Path, graph: &SimilarityGraph, utilities: &[f32]) -> Result<(), KnnError> {
    graph.write_store_with_utilities(path, utilities)?;
    Ok(())
}

/// Loads a graph and utility vector previously written by [`save_graph`],
/// memory-mapping the CSR arrays.
///
/// # Errors
///
/// Returns an error if the file is missing, truncated, corrupt, or fails
/// CSR validation (see [`submod_core::GraphError`]).
pub fn load_graph(path: &Path) -> Result<(SimilarityGraph, Vec<f32>), KnnError> {
    let (graph, utilities) = SimilarityGraph::open_store_with_utilities(path)?;
    Ok((graph, utilities))
}

/// Loads the cache at `path` or builds and saves it with `build`.
///
/// Both paths return the **mapped** graph: after a cache miss the freshly
/// built graph is written to disk and reopened through the store, so a run
/// behaves identically whether or not the cache already existed.
///
/// # Errors
///
/// Propagates build and I/O errors; a corrupt cache file is rebuilt rather
/// than failing.
pub fn load_or_build<F>(path: &Path, build: F) -> Result<(SimilarityGraph, Vec<f32>), KnnError>
where
    F: FnOnce() -> Result<(SimilarityGraph, Vec<f32>), KnnError>,
{
    if path.exists() {
        match load_graph(path) {
            Ok(loaded) => {
                submod_obs::counter!("knn.cache.hits").incr();
                return Ok(loaded);
            }
            Err(_) => {
                // Corrupt or stale: fall through and rebuild.
                let _ = fs::remove_file(path);
            }
        }
    }
    submod_obs::counter!("knn.cache.misses").incr();
    let (graph, utilities) = build()?;
    save_graph(path, &graph, &utilities)?;
    load_graph(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use submod_core::{GraphBuilder, NodeId};

    fn sample_graph() -> (SimilarityGraph, Vec<f32>) {
        let mut b = GraphBuilder::new(4);
        b.add_undirected(0, 1, 0.5).unwrap();
        b.add_undirected(2, 3, 0.25).unwrap();
        b.add_undirected(0, 3, 0.75).unwrap();
        (b.build(), vec![0.1, 0.2, 0.3, 0.4])
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("submod-cache-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip() {
        let (graph, utilities) = sample_graph();
        let path = temp_path("roundtrip.bin");
        save_graph(&path, &graph, &utilities).unwrap();
        let (loaded_graph, loaded_utilities) = load_graph(&path).unwrap();
        assert_eq!(loaded_graph, graph);
        assert_eq!(loaded_utilities, utilities);
        assert!(loaded_graph.is_mapped(), "cache hits must be zero-copy mapped");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mismatched_utilities_rejected() {
        let (graph, _) = sample_graph();
        let path = temp_path("mismatch.bin");
        assert!(save_graph(&path, &graph, &[0.0; 2]).is_err());
    }

    #[test]
    fn corrupt_file_is_detected() {
        let path = temp_path("corrupt.bin");
        fs::write(&path, b"definitely not a graph").unwrap();
        assert!(load_graph(&path).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn pre_store_cache_format_is_rejected() {
        // The old cache format started with SUBMODG1; it must surface as a
        // typed store error (and therefore be rebuilt by load_or_build).
        let path = temp_path("old-format.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SUBMODG1");
        bytes.extend_from_slice(&[0u8; 64]);
        fs::write(&path, &bytes).unwrap();
        match load_graph(&path) {
            Err(KnnError::Store(submod_core::GraphError::BadMagic { found })) => {
                assert_eq!(&found, b"SUBMODG1");
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_or_build_builds_once() {
        let path = temp_path("build-once.bin");
        let _ = fs::remove_file(&path);
        let mut builds = 0;
        let (g1, _) = load_or_build(&path, || {
            builds += 1;
            Ok(sample_graph())
        })
        .unwrap();
        let (g2, _) = load_or_build(&path, || {
            builds += 1;
            Ok(sample_graph())
        })
        .unwrap();
        assert_eq!(builds, 1, "second call must hit the cache");
        assert_eq!(g1, g2);
        assert!(g1.is_mapped() && g2.is_mapped(), "both paths must return the mapped graph");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_or_build_recovers_from_corruption() {
        let path = temp_path("recover.bin");
        fs::write(&path, b"garbage").unwrap();
        let (graph, _) = load_or_build(&path, || Ok(sample_graph())).unwrap();
        assert_eq!(graph.num_nodes(), 4);
        let _ = fs::remove_file(&path);
    }

    /// Threads racing on one cold cache path each build and publish the
    /// graph while the others already map it. A publish must never
    /// truncate a mapped file (touching a truncated mapping raises
    /// SIGBUS), so every thread reads every edge of an intact graph.
    #[test]
    fn concurrent_cold_loads_never_truncate_a_mapped_file() {
        const NODES: u64 = 4000;
        let build = || {
            let mut b = GraphBuilder::new(NODES as usize);
            for v in 0..NODES {
                for d in [1, 7, 31] {
                    b.add_undirected(v, (v + d) % NODES, 0.5).unwrap();
                }
            }
            Ok((b.build(), vec![0.5; NODES as usize]))
        };
        let path = temp_path("concurrent-cold.bin");
        for _round in 0..3 {
            let _ = fs::remove_file(&path);
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        start.wait();
                        let (graph, utilities) = load_or_build(&path, build).unwrap();
                        let (mut edges, mut weight) = (0usize, 0.0f64);
                        for v in 0..graph.num_nodes() {
                            for (_, s) in graph.edges(NodeId::from_index(v)) {
                                edges += 1;
                                weight += f64::from(s);
                            }
                        }
                        assert_eq!(edges, 6 * NODES as usize);
                        assert_eq!(weight, 3.0 * NODES as f64);
                        assert_eq!(utilities.len(), NODES as usize);
                    });
                }
            });
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(load_graph(&temp_path("missing.bin")).is_err());
    }
}
