//! Integration tests of the rtcore substrate against the dataset generators:
//! BVH invariants, query correctness against brute force, and counter
//! consistency — the plumbing every experiment rests on.

use proptest::prelude::*;
use rtcore::bvh::{
    build_over_points, compact_coincident, validate, BvhBuilder, LbvhBuilder, SahBuilder,
};
use rtcore::geometry::{Point3, Ray};
use rtcore::hardware::{DeviceModel, ExecutionPath, WorkCounters};
use rtcore::index::{IndexKind, NeighborIndex, NeighborIndexBuilder};
use rtcore::traversal::collect_sphere_hits;
use rtdbscan_datasets::{generate, PaperDataset};

fn binary_index(points: &[Point3], radius: f32) -> Box<dyn NeighborIndex> {
    NeighborIndexBuilder::new(IndexKind::BinaryBvh)
        .build(points, radius)
        .expect("finite points and positive radius")
}

fn index_neighbors(index: &dyn NeighborIndex, points: &[Point3], q: usize) -> Vec<u32> {
    let mut scratch = WorkCounters::ZERO;
    let mut got = index.neighbors_of(points[q], index.eps(), Some(q as u32), &mut scratch);
    got.sort_unstable();
    got
}

fn brute_force_neighbors(points: &[Point3], q: usize, radius: f32) -> Vec<u32> {
    let mut out: Vec<u32> = points
        .iter()
        .enumerate()
        .filter(|&(i, p)| i != q && points[q].distance_squared(*p) <= radius * radius)
        .map(|(i, _)| i as u32)
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn bvh_invariants_hold_on_every_dataset_and_builder() {
    for dataset in PaperDataset::ALL {
        let points = generate(dataset, 4_000, 17);
        let (eps, _) = dataset.default_params();
        let builders: Vec<Box<dyn BvhBuilder>> = vec![
            Box::new(LbvhBuilder::default()),
            Box::new(SahBuilder::default()),
        ];
        for builder in builders {
            let bvh = build_over_points(builder.as_ref(), &points, eps).unwrap();
            validate(&bvh)
                .unwrap_or_else(|e| panic!("{:?} on {}: {e}", builder.kind(), dataset.name()));
            assert_eq!(bvh.primitive_count(), points.len());
            assert!(bvh.depth() <= 2 * (points.len() as f32).log2() as usize + 32);
        }
    }
}

#[test]
fn fixed_radius_search_matches_brute_force_on_real_shaped_data() {
    for dataset in PaperDataset::ALL {
        let points = generate(dataset, 1_500, 23);
        let (eps, _) = dataset.default_params();
        let search = binary_index(&points, eps);
        for q in (0..points.len()).step_by(137) {
            assert_eq!(
                index_neighbors(search.as_ref(), &points, q),
                brute_force_neighbors(&points, q, eps),
                "dataset {} query {q}",
                dataset.name()
            );
        }
    }
}

#[test]
fn compaction_preserves_query_semantics_on_duplicated_data() {
    let points = generate(PaperDataset::Ngsim, 3_000, 5);
    let radius = 0.001;
    let compaction = compact_coincident(&points, radius);
    assert!(
        compaction.merged > 0,
        "NGSIM data should contain duplicates"
    );
    let bvh = SahBuilder::default()
        .build(compaction.spheres.clone())
        .unwrap();
    validate(&bvh).unwrap();

    // Multiplicity-weighted neighbour counts over the compacted scene must
    // equal the exact counts over the raw points.
    for q in (0..points.len()).step_by(211) {
        let expected = brute_force_neighbors(&points, q, radius).len() as u64;
        let ray = Ray::epsilon_ray(points[q]);
        let mut counters = WorkCounters::ZERO;
        let mut count = 0u64;
        rtcore::traversal::traverse(&bvh, &ray, &mut counters, |sphere, counters| {
            counters.dist_comps += 1;
            if sphere.center.distance_squared(points[q]) <= radius * radius {
                if sphere.point_index == compaction.representative_of[q] {
                    count += (sphere.multiplicity - 1) as u64;
                } else {
                    count += sphere.multiplicity as u64;
                }
            }
            rtcore::traversal::Traversal::Continue
        });
        assert_eq!(count, expected, "query {q}");
    }
}

#[test]
fn traversal_counters_and_device_model_are_consistent() {
    let points = generate(PaperDataset::PortoTaxi, 5_000, 7);
    let bvh = build_over_points(&LbvhBuilder::default(), &points, 0.5).unwrap();
    let mut counters = WorkCounters::ZERO;
    for (i, &p) in points.iter().enumerate().step_by(10) {
        counters.rays += 1;
        collect_sphere_hits(&bvh, &Ray::epsilon_ray(p), Some(i as u32), &mut counters);
    }
    // Counter sanity: every ray visits at least the root, every primitive
    // test was preceded by an AABB admission, distance filter ran per test.
    assert!(counters.aabb_tests >= counters.rays);
    assert!(counters.dist_comps == counters.prim_tests);
    assert!(counters.node_visits > 0);

    // The same counters are strictly cheaper on the RT path than on the
    // shader path, and build time is charged separately.
    let device = DeviceModel::rtx2060();
    let rt = device.traversal_time(&counters, ExecutionPath::RtCore);
    let sm = device.traversal_time(&counters, ExecutionPath::ShaderCore);
    assert!(rt < sm);
    assert_eq!(
        device
            .build_time(&counters, ExecutionPath::RtCore)
            .as_secs_f64(),
        0.0,
        "no build work was recorded, so no build time may be charged"
    );
}

#[test]
fn query_structure_handles_updates_of_radius_via_rebuild() {
    let points = generate(PaperDataset::Ionosphere3d, 2_000, 3);
    let small = binary_index(&points, 0.1);
    let large = binary_index(&points, 1.0);
    let mut grew = 0;
    for q in (0..points.len()).step_by(97) {
        let a = index_neighbors(small.as_ref(), &points, q).len();
        let b = index_neighbors(large.as_ref(), &points, q).len();
        assert!(b >= a, "larger radius can never lose neighbours");
        if b > a {
            grew += 1;
        }
    }
    assert!(
        grew > 0,
        "a 10x larger radius should grow some neighbourhood"
    );
}

/// O(n²) reference for `compact_coincident`: each point's representative
/// is the lowest index with the same `bit_key`.
fn compaction_oracle(points: &[Point3]) -> Vec<u32> {
    (0..points.len())
        .map(|i| {
            (0..=i)
                .find(|&j| points[j].bit_key() == points[i].bit_key())
                .unwrap() as u32
        })
        .collect()
}

/// A compaction stress input: fresh points, exact duplicates, signed-zero
/// twins, distinct points a hair apart (they share a 30-bit Morton code),
/// and a run of `pile` coincident points scattered through the order.
fn compaction_input(seed: u64, n: usize, pile: usize) -> Vec<Point3> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut pts: Vec<Point3> = Vec::with_capacity(n + pile);
    for _ in 0..n {
        let kind = next() % 5;
        let p = match (kind, pts.last().copied()) {
            (1, Some(_)) => pts[next() as usize % pts.len()],
            (2, _) => {
                let sign = |b: u64| if b == 0 { 0.0f32 } else { -0.0f32 };
                Point3::new(sign(next() % 2), (next() % 4) as f32, sign(next() % 2))
            }
            (3, Some(last)) => Point3::new(last.x + 1e-3, last.y, last.z),
            _ => Point3::new(
                (next() % 10_000) as f32 * 0.01,
                (next() % 10_000) as f32 * 0.01,
                (next() % 3) as f32,
            ),
        };
        pts.push(p);
    }
    let pile_point = Point3::new(42.5, 17.25, 1.0);
    for _ in 0..pile {
        let at = next() as usize % (pts.len() + 1);
        pts.insert(at, pile_point);
    }
    pts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: the sort-based compaction matches the O(n²) `bit_key`
    /// oracle exactly — representatives, ascending representative order,
    /// multiplicities and the merge count — on duplicate runs, signed
    /// zeros, distinct points sharing a Morton code and a pile of over
    /// 5,000 coincident points.
    #[test]
    fn compaction_matches_the_quadratic_oracle(
        seed in 0u64..u64::MAX,
        n in 0usize..400,
        pile in 5_000usize..5_200,
    ) {
        let pts = compaction_input(seed, n, pile);
        let reps = compaction_oracle(&pts);
        let c = compact_coincident(&pts, 0.25);
        prop_assert_eq!(&c.representative_of, &reps);
        let mut multiplicity = vec![0u32; pts.len()];
        for &r in &reps {
            multiplicity[r as usize] += 1;
        }
        let expected: Vec<(u32, u32)> = (0..pts.len() as u32)
            .filter(|&i| reps[i as usize] == i)
            .map(|i| (i, multiplicity[i as usize]))
            .collect();
        let got: Vec<(u32, u32)> = c.spheres.iter().map(|s| (s.point_index, s.multiplicity)).collect();
        prop_assert_eq!(got, expected);
        for s in &c.spheres {
            // The representative's own coordinates, signed zeros included.
            let rep = pts[s.point_index as usize];
            let bits = |p: Point3| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits());
            prop_assert!(bits(s.center) == bits(rep));
            prop_assert!(s.radius == 0.25);
        }
        prop_assert_eq!(c.merged, (pts.len() - c.spheres.len()) as u64);
        prop_assert!(c.merged as usize >= pile - 1);
    }


    /// Property: for arbitrary point clouds and radii, the RT query primitive
    /// returns exactly the brute-force neighbour set.
    #[test]
    fn rt_findneighbor_equals_brute_force(
        n in 1usize..120,
        radius in 0.05f32..3.0,
        seed in 0u64..500,
        query in 0usize..120,
    ) {
        // Deterministic pseudo-random points from the seed (keep proptest
        // shrinking well-behaved by avoiding external RNG state).
        let pts: Vec<Point3> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                let x = ((h >> 16) & 0xffff) as f32 / 65535.0 * 10.0;
                let y = ((h >> 32) & 0xffff) as f32 / 65535.0 * 10.0;
                let z = ((h >> 48) & 0xffff) as f32 / 65535.0 * 2.0;
                Point3::new(x, y, z)
            })
            .collect();
        let q = query % n;
        let search = binary_index(&pts, radius);
        prop_assert_eq!(
            index_neighbors(search.as_ref(), &pts, q),
            brute_force_neighbors(&pts, q, radius)
        );
    }

    /// Property: BVH structural invariants hold for arbitrary point clouds,
    /// including ones with many exact duplicates.
    #[test]
    fn bvh_invariants_hold_for_arbitrary_inputs(
        n in 1usize..200,
        dup_every in 1usize..5,
        radius in 0.01f32..1.0,
        seed in 0u64..500,
    ) {
        let pts: Vec<Point3> = (0..n)
            .map(|i| {
                let base = i / dup_every * dup_every; // duplicate runs
                let h = (base as u64).wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(seed);
                Point3::new_2d(
                    ((h >> 20) & 0x3ff) as f32 / 10.0,
                    ((h >> 40) & 0x3ff) as f32 / 10.0,
                )
            })
            .collect();
        for builder in [rtcore::bvh::BuilderKind::Lbvh, rtcore::bvh::BuilderKind::BinnedSah] {
            let bvh = match builder {
                rtcore::bvh::BuilderKind::Lbvh =>
                    build_over_points(&LbvhBuilder::default(), &pts, radius).unwrap(),
                _ => build_over_points(&SahBuilder::default(), &pts, radius).unwrap(),
            };
            prop_assert!(validate(&bvh).is_ok());
        }
    }
}
