//! The dense row-major tensor type.

/// A dense, row-major tensor of `f32` values.
///
/// Convolutional activations use `[C, H, W]` layout; convolution weights
/// use `[OutC, InC/groups, KH, KW]`; fully-connected weights use
/// `[Out, In]`; vectors use `[N]`. The type itself is layout-agnostic —
/// the kernels in [`crate::conv`] and [`crate::pool`] give dimensions
/// their meaning.
///
/// # Example
///
/// ```
/// use mupod_tensor::Tensor;
/// let mut t = Tensor::zeros(&[2, 3]);
/// *t.at_mut(&[1, 2]) = 7.0;
/// assert_eq!(t.at(&[1, 2]), 7.0);
/// assert_eq!(t.numel(), 6);
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    dims: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self {
            dims: self.dims.clone(),
            data: self.data.clone(),
        }
    }

    /// Takes `source`'s shape and contents, reusing this tensor's buffers:
    /// no heap allocation once they are at least as large — how one
    /// scratch tensor serves operands of different shapes.
    fn clone_from(&mut self, source: &Self) {
        self.dims.clone_from(&source.dims);
        self.data.clone_from(&source.data);
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or contains a zero extent.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::filled(dims, 0.0)
    }

    /// Creates a tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or contains a zero extent.
    pub fn filled(dims: &[usize], value: f32) -> Self {
        assert!(!dims.is_empty(), "tensor needs at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "tensor dimensions must be positive: {dims:?}"
        );
        let numel = dims.iter().product();
        Self {
            dims: dims.to_vec(),
            data: vec![value; numel],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `dims`.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Self {
        assert!(!dims.is_empty(), "tensor needs at least one dimension");
        let numel: usize = dims.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match dims {:?}",
            data.len(),
            dims
        );
        Self {
            dims: dims.to_vec(),
            data,
        }
    }

    /// The tensor's dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Linear offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.dims.len(), "index rank mismatch");
        let mut off = 0usize;
        for (i, (&ix, &d)) in index.iter().zip(&self.dims).enumerate() {
            assert!(ix < d, "index {ix} out of bounds for dim {i} of extent {d}");
            off = off * d + ix;
        }
        off
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.offset(index);
        &mut self.data[off]
    }

    /// Returns a copy with a new shape of the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(&self, dims: &[usize]) -> Tensor {
        Tensor::from_vec(dims, self.data.clone())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Copies `other`'s contents into this tensor without reallocating —
    /// the arena counterpart of `clone` for pre-shaped slots.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn copy_from(&mut self, other: &Tensor) {
        assert_eq!(self.dims, other.dims, "shape mismatch in copy_from");
        self.data.copy_from_slice(&other.data);
    }

    /// Element-wise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.dims, other.dims, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise difference `self − other` as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.dims, other.dims, "shape mismatch in sub");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor::from_vec(&self.dims, data)
    }

    /// Largest absolute element; `0.0` only for the all-zero tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Index of the largest element (first on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Concatenates CHW tensors along the channel axis.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, any part is not rank 3, or spatial
    /// dimensions disagree.
    pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat needs at least one input");
        let h = parts[0].dims()[1];
        let w = parts[0].dims()[2];
        let mut total_c = 0;
        for p in parts {
            assert_eq!(p.dims().len(), 3, "concat expects CHW tensors");
            assert_eq!(p.dims()[1], h, "spatial height mismatch in concat");
            assert_eq!(p.dims()[2], w, "spatial width mismatch in concat");
            total_c += p.dims()[0];
        }
        let mut data = Vec::with_capacity(total_c * h * w);
        for p in parts {
            data.extend_from_slice(p.data());
        }
        Tensor::from_vec(&[total_c, h, w], data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        *t.at_mut(&[1, 2, 3]) = 5.0;
        assert_eq!(t.at(&[1, 2, 3]), 5.0);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        Tensor::zeros(&[2, 2]).at(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_length() {
        Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn arithmetic_helpers() {
        let a = Tensor::from_vec(&[3], vec![1.0, -4.0, 2.0]);
        let b = Tensor::from_vec(&[3], vec![0.5, 1.0, -1.0]);
        let d = a.sub(&b);
        assert_eq!(d.data(), &[0.5, -5.0, 3.0]);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.argmax(), 2);

        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[1.5, -3.0, 1.0]);
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        let t = Tensor::from_vec(&[3], vec![2.0, 2.0, 1.0]);
        assert_eq!(t.argmax(), 0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let r = t.reshaped(&[4]);
        assert_eq!(r.dims(), &[4]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn concat_channels_stacks() {
        let a = Tensor::filled(&[1, 2, 2], 1.0);
        let b = Tensor::filled(&[2, 2, 2], 2.0);
        let c = Tensor::concat_channels(&[&a, &b]);
        assert_eq!(c.dims(), &[3, 2, 2]);
        assert_eq!(&c.data()[0..4], &[1.0; 4]);
        assert_eq!(&c.data()[4..12], &[2.0; 8]);
    }

    #[test]
    #[should_panic(expected = "spatial height mismatch")]
    fn concat_rejects_mismatched_spatial() {
        let a = Tensor::zeros(&[1, 2, 2]);
        let b = Tensor::zeros(&[1, 3, 2]);
        Tensor::concat_channels(&[&a, &b]);
    }

    #[test]
    fn map_inplace_applies() {
        let mut t = Tensor::from_vec(&[2], vec![-1.0, 2.0]);
        t.map_inplace(|v| v.max(0.0));
        assert_eq!(t.data(), &[0.0, 2.0]);
    }
}
