//! Orthonormal subspaces of a `d`-dimensional ambient space.
//!
//! The paper's notation (§1.3): `E` is an `l`-dimensional subspace spanned by
//! orthogonal vectors `{e₁ … e_l}`; `Proj(y, E) = (y·e₁, …, y·e_l)` and the
//! projected distance `Pdist(x₁, x₂, E)` is the distance between the
//! projections. The search loop additionally needs orthogonal complements
//! (`E_new = E_c ⊖ E_p`, Fig. 3) so that the `d/2` views of a major iteration
//! are mutually orthogonal, and the ability to *lift* directions found in
//! subspace coordinates back into the ambient space (the eigenvectors of
//! Fig. 4 are computed in the coordinates of the current subspace).

use crate::vector::{axpy, dot, norm, scale};

/// Tolerance below which a residual vector is considered linearly dependent
/// and dropped during Gram–Schmidt.
const DEP_TOL: f64 = 1e-9;

/// An orthonormal basis for a linear subspace of `R^ambient_dim`.
///
/// Basis vectors are stored as rows in ambient coordinates and are always
/// orthonormal (enforced by construction).
///
/// ```
/// use hinn_linalg::Subspace;
///
/// // The x-y plane inside R^3 (spanning vectors get orthonormalized).
/// let plane = Subspace::from_vectors(3, &[vec![2.0, 0.0, 0.0], vec![1.0, 1.0, 0.0]]);
/// assert_eq!(plane.dim(), 2);
/// // z is ignored by projected distances...
/// assert!(plane.projected_distance(&[0.0, 0.0, 5.0], &[0.0, 0.0, -5.0]) < 1e-12);
/// // ...and spans the complement.
/// let z_axis = Subspace::full(3).complement_within(&plane);
/// assert!(z_axis.contains(&[0.0, 0.0, 1.0], 1e-9));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Subspace {
    ambient_dim: usize,
    basis: Vec<Vec<f64>>,
}

impl Subspace {
    /// The full space `R^d` with the standard basis.
    pub fn full(d: usize) -> Self {
        let basis = (0..d)
            .map(|i| {
                let mut e = vec![0.0; d];
                e[i] = 1.0;
                e
            })
            .collect();
        Self {
            ambient_dim: d,
            basis,
        }
    }

    /// The zero-dimensional subspace of `R^d`.
    pub fn empty(d: usize) -> Self {
        Self {
            ambient_dim: d,
            basis: Vec::new(),
        }
    }

    /// Build a subspace from arbitrary spanning vectors (ambient
    /// coordinates) via modified Gram–Schmidt. Linearly dependent or
    /// near-zero vectors are silently dropped, so `dim()` may be smaller
    /// than `vectors.len()`.
    ///
    /// # Panics
    /// Panics if any vector's length differs from `ambient_dim`.
    pub fn from_vectors(ambient_dim: usize, vectors: &[Vec<f64>]) -> Self {
        let mut s = Self::empty(ambient_dim);
        for v in vectors {
            s.try_extend(v);
        }
        s
    }

    /// Rebuild a subspace from rows that are *already* orthonormal, storing
    /// them verbatim — no re-orthogonalization, so a serialized basis
    /// restores bit-identically (Gram–Schmidt through
    /// [`Subspace::from_vectors`] would perturb the low-order bits).
    /// Returns `None` when any row's length differs from `ambient_dim` or
    /// the rows are not orthonormal within `1e-9`.
    pub fn try_from_orthonormal_rows(ambient_dim: usize, rows: Vec<Vec<f64>>) -> Option<Self> {
        if rows.iter().any(|r| r.len() != ambient_dim) {
            return None;
        }
        let s = Self {
            ambient_dim,
            basis: rows,
        };
        s.is_orthonormal(1e-9).then_some(s)
    }

    /// Attempt to extend the basis with (the component of) `v` orthogonal to
    /// the current span. Returns `true` if the dimension grew.
    ///
    /// # Panics
    /// Panics if `v.len() != ambient_dim`.
    pub fn try_extend(&mut self, v: &[f64]) -> bool {
        assert_eq!(
            v.len(),
            self.ambient_dim,
            "try_extend: vector has wrong ambient dimension"
        );
        let mut r = v.to_vec();
        // Two rounds of re-orthogonalization for numerical robustness
        // ("twice is enough", Kahan/Parlett).
        for _ in 0..2 {
            for b in &self.basis {
                let c = dot(&r, b);
                axpy(-c, b, &mut r);
            }
        }
        let n = norm(&r);
        if n <= DEP_TOL * (1.0 + norm(v)) {
            return false;
        }
        self.basis.push(scale(&r, 1.0 / n));
        true
    }

    /// Dimension `l` of the subspace.
    #[inline]
    pub fn dim(&self) -> usize {
        self.basis.len()
    }

    /// Dimension `d` of the ambient space.
    #[inline]
    pub fn ambient_dim(&self) -> usize {
        self.ambient_dim
    }

    /// The orthonormal basis vectors (rows, ambient coordinates).
    #[inline]
    pub fn basis(&self) -> &[Vec<f64>] {
        &self.basis
    }

    /// `Proj(y, E)`: coordinates of `y` in this subspace's basis
    /// (an `l`-vector).
    pub fn project(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.ambient_dim, "project: dimension mismatch");
        self.basis.iter().map(|e| dot(y, e)).collect()
    }

    /// Project every point of a data set.
    pub fn project_all(&self, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
        points.iter().map(|p| self.project(p)).collect()
    }

    /// `Pdist(x₁, x₂, E)`: Euclidean distance between the projections.
    pub fn projected_distance(&self, x1: &[f64], x2: &[f64]) -> f64 {
        let mut s = 0.0;
        for e in &self.basis {
            let c = dot(x1, e) - dot(x2, e);
            s += c * c;
        }
        s.sqrt()
    }

    /// Lift coordinates expressed in this subspace's basis back to an
    /// ambient-space vector: `Σ coords[k] · e_k`.
    ///
    /// # Panics
    /// Panics if `coords.len() != dim()`.
    pub fn lift(&self, coords: &[f64]) -> Vec<f64> {
        assert_eq!(coords.len(), self.dim(), "lift: coordinate count mismatch");
        let mut out = vec![0.0; self.ambient_dim];
        for (c, e) in coords.iter().zip(&self.basis) {
            axpy(*c, e, &mut out);
        }
        out
    }

    /// Construct the sub-subspace spanned by `directions` given in **this
    /// subspace's coordinates** (each of length `dim()`), returned in
    /// ambient coordinates. This is how eigenvectors computed on projected
    /// data (Fig. 4) become ambient projections.
    pub fn sub_subspace(&self, directions: &[Vec<f64>]) -> Subspace {
        let lifted: Vec<Vec<f64>> = directions.iter().map(|c| self.lift(c)).collect();
        Subspace::from_vectors(self.ambient_dim, &lifted)
    }

    /// Orthogonal complement of `inner` **within** `self`
    /// (`self ⊖ inner`, the `E_new = E_c − E_p` of Fig. 3).
    ///
    /// `inner` need not be exactly contained in `self`; its span is
    /// projected out of `self`'s basis. The result has dimension
    /// `self.dim() − rank(inner ∩ self)`.
    pub fn complement_within(&self, inner: &Subspace) -> Subspace {
        assert_eq!(
            self.ambient_dim, inner.ambient_dim,
            "complement_within: ambient dimension mismatch"
        );
        let mut out = Subspace::empty(self.ambient_dim);
        for b in &self.basis {
            let mut r = b.clone();
            for _ in 0..2 {
                for e in &inner.basis {
                    let c = dot(&r, e);
                    axpy(-c, e, &mut r);
                }
                for e in &out.basis {
                    let c = dot(&r, e);
                    axpy(-c, e, &mut r);
                }
            }
            let n = norm(&r);
            if n > DEP_TOL {
                out.basis.push(scale(&r, 1.0 / n));
            }
        }
        out
    }

    /// `true` iff `v` lies in the span of this subspace (within `tol`).
    pub fn contains(&self, v: &[f64], tol: f64) -> bool {
        let mut r = v.to_vec();
        for e in &self.basis {
            let c = dot(&r, e);
            axpy(-c, e, &mut r);
        }
        norm(&r) <= tol * (1.0 + norm(v))
    }

    /// Verify the basis is orthonormal within `tol` (diagnostic; always true
    /// by construction, used in tests and debug assertions).
    pub fn is_orthonormal(&self, tol: f64) -> bool {
        for (i, a) in self.basis.iter().enumerate() {
            if (norm(a) - 1.0).abs() > tol {
                return false;
            }
            for b in &self.basis[i + 1..] {
                if dot(a, b).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_projects_identically() {
        let s = Subspace::full(3);
        assert_eq!(s.dim(), 3);
        let y = vec![1.0, -2.0, 3.0];
        assert_eq!(s.project(&y), y);
        assert_eq!(s.lift(&y), y);
    }

    #[test]
    fn gram_schmidt_drops_dependent_vectors() {
        let s = Subspace::from_vectors(
            3,
            &[
                vec![1.0, 0.0, 0.0],
                vec![2.0, 0.0, 0.0], // dependent
                vec![1.0, 1.0, 0.0],
            ],
        );
        assert_eq!(s.dim(), 2);
        assert!(s.is_orthonormal(1e-10));
    }

    #[test]
    fn zero_vector_does_not_extend() {
        let mut s = Subspace::empty(2);
        assert!(!s.try_extend(&[0.0, 0.0]));
        assert!(s.try_extend(&[0.0, 5.0]));
        assert!(!s.try_extend(&[0.0, -3.0]));
        assert_eq!(s.dim(), 1);
    }

    #[test]
    fn projection_is_a_contraction() {
        let s = Subspace::from_vectors(3, &[vec![1.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![-1.0, 0.5, 2.0];
        assert!(s.projected_distance(&x, &y) <= crate::vector::dist(&x, &y) + 1e-12);
    }

    #[test]
    fn projected_distance_matches_projected_coords() {
        let s = Subspace::from_vectors(3, &[vec![1.0, 2.0, 0.5], vec![0.0, 1.0, -1.0]]);
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![0.0, -1.0, 1.0];
        let d1 = s.projected_distance(&x, &y);
        let d2 = crate::vector::dist(&s.project(&x), &s.project(&y));
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn complement_dimensions_add_up() {
        let full = Subspace::full(5);
        let inner = Subspace::from_vectors(
            5,
            &[vec![1.0, 1.0, 0.0, 0.0, 0.0], vec![0.0, 0.0, 1.0, 0.0, 1.0]],
        );
        let comp = full.complement_within(&inner);
        assert_eq!(comp.dim(), 3);
        assert!(comp.is_orthonormal(1e-10));
        // Complement basis vectors are orthogonal to the inner subspace.
        for c in comp.basis() {
            for e in inner.basis() {
                assert!(dot(c, e).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn complement_then_union_spans_parent() {
        let parent = Subspace::from_vectors(
            4,
            &[
                vec![1.0, 0.0, 0.0, 0.0],
                vec![0.0, 1.0, 1.0, 0.0],
                vec![0.0, 0.0, 0.0, 1.0],
            ],
        );
        let inner = Subspace::from_vectors(4, &[vec![0.0, 1.0, 1.0, 0.0]]);
        let comp = parent.complement_within(&inner);
        assert_eq!(comp.dim(), 2);
        let mut union = inner.clone();
        for b in comp.basis() {
            union.try_extend(b);
        }
        for b in parent.basis() {
            assert!(union.contains(b, 1e-9));
        }
    }

    #[test]
    fn lift_project_roundtrip_inside_subspace() {
        let s = Subspace::from_vectors(4, &[vec![1.0, 1.0, 0.0, 0.0], vec![0.0, 0.0, 2.0, 1.0]]);
        let coords = vec![0.7, -1.3];
        let ambient = s.lift(&coords);
        let back = s.project(&ambient);
        for (a, b) in coords.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sub_subspace_lifts_directions() {
        let s = Subspace::from_vectors(3, &[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
        // Direction (1,1)/√2 in s-coordinates = (1,1,0)/√2 in ambient.
        let sub = s.sub_subspace(&[vec![1.0, 1.0]]);
        assert_eq!(sub.dim(), 1);
        assert!(sub.contains(&[1.0, 1.0, 0.0], 1e-9));
        assert!(!sub.contains(&[0.0, 0.0, 1.0], 1e-9));
    }

    #[test]
    fn contains_detects_membership() {
        let s = Subspace::from_vectors(3, &[vec![1.0, 2.0, 3.0]]);
        assert!(s.contains(&[2.0, 4.0, 6.0], 1e-9));
        assert!(!s.contains(&[1.0, 0.0, 0.0], 1e-9));
    }

    #[test]
    fn empty_subspace_projects_to_nothing() {
        let s = Subspace::empty(3);
        assert_eq!(s.dim(), 0);
        assert!(s.project(&[1.0, 2.0, 3.0]).is_empty());
        assert_eq!(
            s.projected_distance(&[1.0, 0.0, 0.0], &[0.0, 0.0, 0.0]),
            0.0
        );
    }
}
