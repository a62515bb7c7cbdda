//! Cross-crate integration tests: every DBSCAN implementation must produce
//! equivalent clusterings on every dataset family, across a range of
//! parameters, including property-based random workloads.

use proptest::prelude::*;
use rtcore::geometry::Point3;
use rtdbscan::metrics::{adjusted_rand_index, same_clustering};
use rtdbscan::{
    ClassicDbscan, CudaDclustPlus, DbscanAlgorithm, DbscanParams, Fdbscan, GDbscan, RtDbscan,
};
use rtdbscan_datasets::{generate, PaperDataset};

fn all_algorithms() -> Vec<Box<dyn DbscanAlgorithm>> {
    vec![
        Box::new(RtDbscan::default()),
        Box::new(RtDbscan::without_compaction()),
        Box::new(RtDbscan::with_triangle_geometry(12)),
        Box::new(Fdbscan::default()),
        Box::new(Fdbscan::with_early_exit()),
        Box::new(GDbscan::default()),
        Box::new(CudaDclustPlus::default()),
    ]
}

/// Parameters that produce a non-trivial mix of clusters, border points and
/// noise for each synthetic dataset at the 3 000-point scale.
fn params_for(dataset: PaperDataset) -> DbscanParams {
    let (eps, min_pts) = match dataset {
        PaperDataset::RoadNetwork => (0.02, 4),
        PaperDataset::PortoTaxi => (0.5, 6),
        PaperDataset::Ngsim => (0.0005, 10),
        PaperDataset::Ionosphere3d => (0.6, 5),
    };
    DbscanParams::new(eps, min_pts).unwrap()
}

#[test]
fn every_algorithm_matches_the_reference_on_every_dataset() {
    for dataset in PaperDataset::ALL {
        let points = generate(dataset, 3_000, 11);
        let params = params_for(dataset);
        let reference = ClassicDbscan::cluster(&points, params).unwrap();
        for algo in all_algorithms() {
            let run = algo
                .run(&points, params)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", algo.name(), dataset.name()));
            assert_eq!(
                reference.core,
                run.clustering.core,
                "{} core points differ on {}",
                algo.name(),
                dataset.name()
            );
            assert!(
                same_clustering(&reference, &run.clustering, &points, params),
                "{} clustering differs on {}",
                algo.name(),
                dataset.name()
            );
            let ari = adjusted_rand_index(&reference, &run.clustering);
            assert!(
                ari > 0.99,
                "{} ARI {ari} too low on {}",
                algo.name(),
                dataset.name()
            );
        }
    }
}

#[test]
fn parameter_grid_agreement_between_rt_dbscan_and_fdbscan() {
    let points = generate(PaperDataset::RoadNetwork, 4_000, 3);
    for eps in [0.005f32, 0.02, 0.08] {
        for min_pts in [2usize, 5, 25] {
            let params = DbscanParams::new(eps, min_pts).unwrap();
            let rt = RtDbscan::default().run(&points, params).unwrap().clustering;
            let fd = Fdbscan::default().run(&points, params).unwrap().clustering;
            assert_eq!(rt.core, fd.core, "eps={eps} minPts={min_pts}");
            assert!(
                same_clustering(&rt, &fd, &points, params),
                "eps={eps} minPts={min_pts}"
            );
        }
    }
}

#[test]
fn clustering_results_are_deterministic_across_repeated_runs() {
    let points = generate(PaperDataset::PortoTaxi, 3_000, 5);
    let params = DbscanParams::new(0.4, 5).unwrap();
    let a = RtDbscan::default().run(&points, params).unwrap().clustering;
    for _ in 0..3 {
        let b = RtDbscan::default().run(&points, params).unwrap().clustering;
        assert_eq!(a.core, b.core);
        assert_eq!(a.labels, b.labels);
    }
}

#[test]
fn extreme_parameters_behave_identically_everywhere() {
    let points = generate(PaperDataset::Ionosphere3d, 1_500, 9);
    // eps so small nothing is a neighbour → all noise.
    let tiny = DbscanParams::new(1e-6, 2).unwrap();
    // eps so large everything is one cluster.
    let huge = DbscanParams::new(1e6, 2).unwrap();
    for algo in all_algorithms() {
        let all_noise = algo.run(&points, tiny).unwrap().clustering;
        assert_eq!(all_noise.num_clusters(), 0, "{}", algo.name());
        assert_eq!(all_noise.noise_count(), points.len(), "{}", algo.name());
        let one_cluster = algo.run(&points, huge).unwrap().clustering;
        assert_eq!(one_cluster.num_clusters(), 1, "{}", algo.name());
        assert_eq!(one_cluster.noise_count(), 0, "{}", algo.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: on arbitrary small random workloads (mixed blobs + noise +
    /// exact duplicates), RT-DBSCAN and FDBSCAN agree with the sequential
    /// reference.
    #[test]
    fn random_workloads_cluster_identically(
        blob_count in 1usize..4,
        points_per_blob in 5usize..40,
        noise in 0usize..30,
        duplicates in 0usize..20,
        eps in 0.3f32..2.0,
        min_pts in 2usize..8,
        seed in 0u64..1000,
    ) {
        let mut pts = Vec::new();
        // Blobs on a coarse grid so some merge and some do not, depending on eps.
        for b in 0..blob_count {
            let cx = (b % 2) as f32 * 6.0;
            let cy = (b / 2) as f32 * 6.0;
            for i in 0..points_per_blob {
                let angle = (i as f32 + seed as f32) * 0.7;
                let radius = 0.8 * ((i * 7 + b * 3) % 10) as f32 / 10.0;
                pts.push(Point3::new_2d(cx + radius * angle.cos(), cy + radius * angle.sin()));
            }
        }
        for i in 0..noise {
            pts.push(Point3::new_2d(
                20.0 + (i as f32 * 13.7 + seed as f32) % 40.0,
                -20.0 - (i as f32 * 7.3) % 40.0,
            ));
        }
        // Exact duplicates of existing points exercise the compaction path.
        for i in 0..duplicates.min(pts.len()) {
            pts.push(pts[i * 31 % pts.len()]);
        }

        let params = DbscanParams::new(eps, min_pts).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        let rt = RtDbscan::default().run(&pts, params).unwrap().clustering;
        let fd = Fdbscan::default().run(&pts, params).unwrap().clustering;
        prop_assert_eq!(&reference.core, &rt.core);
        prop_assert_eq!(&reference.core, &fd.core);
        prop_assert!(same_clustering(&reference, &rt, &pts, params));
        prop_assert!(same_clustering(&reference, &fd, &pts, params));
    }
}
