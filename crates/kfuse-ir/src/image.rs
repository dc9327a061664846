//! Constant-size, multi-channel `f32` images.
//!
//! Image-processing pipelines in the paper operate on constant-size images
//! (Section II-B2: header compatibility requires all fused kernels to share
//! one iteration-space size). Pixels are stored channel-interleaved in row
//! major order.

use std::fmt;
use std::sync::Arc;

/// Identifier of an image within a [`crate::Pipeline`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImageId(pub usize);

impl fmt::Debug for ImageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "img{}", self.0)
    }
}

/// Shape and name of an image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageDesc {
    /// Human-readable name (used in printing and traces).
    pub name: String,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Channels per pixel (1 for gray-scale, 3 for RGB).
    pub channels: usize,
}

impl ImageDesc {
    /// Creates a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(name: impl Into<String>, width: usize, height: usize, channels: usize) -> Self {
        assert!(
            width > 0 && height > 0 && channels > 0,
            "image dimensions must be non-zero"
        );
        Self {
            name: name.into(),
            width,
            height,
            channels,
        }
    }

    /// Iteration-space size `IS(i)` of the image: `width · height`
    /// (paper Section II-C2).
    pub fn iteration_space(&self) -> usize {
        self.width * self.height
    }

    /// Total number of scalar samples (`width · height · channels`).
    pub fn sample_count(&self) -> usize {
        self.width * self.height * self.channels
    }

    /// Size of the image in bytes assuming `f32` samples.
    pub fn byte_size(&self) -> usize {
        self.sample_count() * std::mem::size_of::<f32>()
    }
}

/// An image buffer with its descriptor.
///
/// The samples sit behind an [`Arc`], so `clone` is a reference count and
/// the first write through a shared handle copies the plane
/// ([`Arc::make_mut`]): an executor can bind a caller's inputs, and report
/// them back as images it owns, without copying a pixel.
#[derive(Clone, Debug, PartialEq)]
pub struct Image {
    desc: ImageDesc,
    data: Arc<Vec<f32>>,
}

impl Image {
    /// Creates a zero-initialized image.
    pub fn zeros(desc: ImageDesc) -> Self {
        let data = Arc::new(vec![0.0; desc.sample_count()]);
        Self { desc, data }
    }

    /// Creates an image from row-major, channel-interleaved data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the descriptor.
    pub fn from_data(desc: ImageDesc, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            desc.sample_count(),
            "data length mismatch for {}",
            desc.name
        );
        Self {
            desc,
            data: Arc::new(data),
        }
    }

    /// Creates a single-channel image from a nested row slice (tests and
    /// worked examples such as the paper's Figure 4 matrices).
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or ragged.
    pub fn from_rows(name: impl Into<String>, rows: &[&[f32]]) -> Self {
        assert!(
            !rows.is_empty() && !rows[0].is_empty(),
            "rows must be non-empty"
        );
        let width = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == width), "ragged rows");
        let desc = ImageDesc::new(name, width, rows.len(), 1);
        Self::from_data(desc, rows.concat())
    }

    /// The image descriptor.
    pub fn desc(&self) -> &ImageDesc {
        &self.desc
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.desc.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.desc.height
    }

    /// Channels per pixel.
    pub fn channels(&self) -> usize {
        self.desc.channels
    }

    /// Raw sample storage (row-major, channel-interleaved).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw sample storage (copies the plane first if a clone
    /// still shares it).
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Sample at in-bounds pixel `(x, y)`, channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates or channel are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize, c: usize) -> f32 {
        debug_assert!(x < self.desc.width && y < self.desc.height && c < self.desc.channels);
        self.data[(y * self.desc.width + x) * self.desc.channels + c]
    }

    /// Sets the sample at in-bounds pixel `(x, y)`, channel `c`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: usize, v: f32) {
        debug_assert!(x < self.desc.width && y < self.desc.height && c < self.desc.channels);
        let i = (y * self.desc.width + x) * self.desc.channels + c;
        self.data_mut()[i] = v;
    }

    /// Row `y` as a contiguous slice of `width · channels` samples.
    ///
    /// Lets executors hoist the `y * width * channels` base-offset
    /// computation (and its bounds check) out of per-pixel inner loops.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: usize) -> &[f32] {
        let stride = self.desc.width * self.desc.channels;
        &self.data[y * stride..(y + 1) * stride]
    }

    /// Mutable row `y` as a contiguous slice of `width · channels` samples.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [f32] {
        let stride = self.desc.width * self.desc.channels;
        &mut self.data_mut()[y * stride..(y + 1) * stride]
    }

    /// Maximum absolute difference to another image of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Image) -> f32 {
        assert_eq!(self.desc.width, other.desc.width);
        assert_eq!(self.desc.height, other.desc.height);
        assert_eq!(self.desc.channels, other.desc.channels);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Whether every sample is bitwise identical to `other`.
    ///
    /// Bitwise comparison (not `==` on floats) so that NaNs and signed zeros
    /// also count; fused and unfused executions are expected to agree
    /// *exactly* because they perform the same arithmetic in the same order.
    pub fn bit_equal(&self, other: &Image) -> bool {
        self.desc.width == other.desc.width
            && self.desc.height == other.desc.height
            && self.desc.channels == other.desc.channels
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_sizes() {
        let d = ImageDesc::new("rgb", 4, 3, 3);
        assert_eq!(d.iteration_space(), 12);
        assert_eq!(d.sample_count(), 36);
        assert_eq!(d.byte_size(), 144);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = ImageDesc::new("bad", 0, 3, 1);
    }

    #[test]
    fn get_set_round_trip() {
        let mut img = Image::zeros(ImageDesc::new("a", 3, 2, 2));
        img.set(2, 1, 1, 7.5);
        assert_eq!(img.get(2, 1, 1), 7.5);
        assert_eq!(img.get(0, 0, 0), 0.0);
    }

    #[test]
    fn from_rows_layout() {
        let img = Image::from_rows("m", &[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(img.width(), 2);
        assert_eq!(img.height(), 2);
        assert_eq!(img.get(0, 1, 0), 3.0);
        assert_eq!(img.get(1, 0, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Image::from_rows("m", &[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn row_slices() {
        let mut img = Image::zeros(ImageDesc::new("a", 3, 2, 2));
        img.set(1, 1, 0, 5.0);
        img.set(2, 1, 1, 6.0);
        assert_eq!(img.row(0), &[0.0; 6]);
        assert_eq!(img.row(1), &[0.0, 0.0, 5.0, 0.0, 0.0, 6.0]);
        img.row_mut(0)[0] = 9.0;
        assert_eq!(img.get(0, 0, 0), 9.0);
    }

    #[test]
    #[should_panic]
    fn row_out_of_bounds_panics() {
        let img = Image::zeros(ImageDesc::new("a", 2, 2, 1));
        let _ = img.row(2);
    }

    #[test]
    fn diff_and_bit_equality() {
        let a = Image::from_rows("a", &[&[1.0, 2.0]]);
        let mut b = a.clone();
        assert!(a.bit_equal(&b));
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(1, 0, 0, 2.5);
        assert!(!a.bit_equal(&b));
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn writing_through_a_clone_leaves_the_original_untouched() {
        let a = Image::from_rows("a", &[&[1.0, 2.0], &[3.0, 4.0]]);
        let bits: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
        let mut b = a.clone();
        // The clone shares the plane until its first write.
        assert!(std::ptr::eq(a.data().as_ptr(), b.data().as_ptr()));
        b.set(0, 0, 0, -1.0);
        b.row_mut(1)[1] = -4.0;
        b.data_mut()[1] = -2.0;
        assert_eq!(b.data(), &[-1.0, -2.0, 3.0, -4.0]);
        let after: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(after, bits);
    }

    #[test]
    fn nan_bit_equality() {
        let a = Image::from_rows("a", &[&[f32::NAN]]);
        let b = Image::from_rows("b", &[&[f32::NAN]]);
        assert!(a.bit_equal(&b));
        assert!(a != b); // `==` on floats treats NaN ≠ NaN
    }
}
