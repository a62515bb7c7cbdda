//! Geometric primitives used by the ray-tracing simulator.
//!
//! Everything is single-precision (`f32`), matching what the RT hardware and
//! the paper's OWL implementation operate on.  2-D datasets are embedded in
//! 3-D by fixing `z = 0`, exactly as Section IV of the paper describes.

mod aabb;
mod morton;
mod point;
mod ray;
mod sphere;
mod vec3;

pub use aabb::Aabb;
pub(crate) use morton::{fill_lane, morton_sort, radix_sort_ops};
pub use morton::{morton_encode_3d, morton_encode_normalized};
pub use point::Point3;
pub use ray::{Ray, RayInterval};
pub use sphere::Sphere;
pub use vec3::Vec3;

/// The infinitesimal ray extent used by the fixed-radius-neighbour reduction.
///
/// Algorithm 2 of the paper launches rays with `[t_min, t_max] = [0, 1e-16]`:
/// the ray only needs to "exist" at its origin, because a point is inside an
/// ε-sphere iff a zero-length ray starting at the point intersects the solid
/// sphere.
pub const EPSILON_RAY_TMAX: f32 = 1e-16;

/// Squared Euclidean distance between two points.
///
/// Kept as a free function because it is the single hottest scalar operation
/// in every DBSCAN variant and the cost model counts calls to it.
#[inline(always)]
pub fn distance_squared(a: Point3, b: Point3) -> f32 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    let dz = a.z - b.z;
    dx * dx + dy * dy + dz * dz
}

/// Euclidean distance between two points.
#[inline(always)]
pub fn distance(a: Point3, b: Point3) -> f32 {
    distance_squared(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_zero_for_identical_points() {
        let p = Point3::new(1.0, 2.0, 3.0);
        assert_eq!(distance(p, p), 0.0);
        assert_eq!(distance_squared(p, p), 0.0);
    }

    #[test]
    fn distance_matches_hand_computation() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(3.0, 4.0, 0.0);
        assert_eq!(distance(a, b), 5.0);
        assert_eq!(distance_squared(a, b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point3::new(-1.0, 2.5, 7.0);
        let b = Point3::new(4.0, -3.0, 1.0);
        assert_eq!(distance(a, b), distance(b, a));
    }

    #[test]
    fn epsilon_ray_is_tiny_but_positive() {
        let t = EPSILON_RAY_TMAX;
        assert!(t > 0.0 && t < 1e-10, "{t}");
    }
}
