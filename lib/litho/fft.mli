(** Iterative radix-2 FFT over flat float arrays — stdlib only.

    The transforms operate on separate re/im arrays whose length must
    be a power of two.  [fft] is unnormalised;
    [ifft] applies the 1/n factor, so [ifft (fft x) = x] up to
    rounding.

    {!convolve_gaussians} is the aerial-image entry point: it replaces
    the per-kernel box-blur cascade with one forward transform of the
    mask, a single frequency-domain multiply by the {e accumulated}
    analytic Gaussian transfer function
    [H(f) = Σ wₖ·exp(-2π²σₖ²(fx²+fy²))], and one inverse transform —
    the blend is linear, so one mask spectrum pays for the whole
    kernel stack.  Internally it packs two real rows per complex
    transform and skips frequency columns the transfer function
    annihilates (the band of the smallest sigma), so the cost is
    nearly independent of the kernel count. *)

(** In-place forward transform; [re]/[im] must share a power-of-two
    length.  Unnormalised. *)
val fft : re:float array -> im:float array -> unit

(** In-place inverse transform, including the 1/n normalisation. *)
val ifft : re:float array -> im:float array -> unit

(** [convolve_gaussians raster ~kernels] replaces the raster contents
    with [Σ wₖ · (Gσₖ ⊛ raster)] for [kernels = [(σₖ_px, wₖ); ...]]
    (sigmas in pixels), computed in the frequency domain on a
    power-of-two padded copy.  The Gaussians are analytic (exact
    transfer function), periodic at the padded extent: wrap-around
    reaches a pixel at distance >= pad + distance-to-edge, so rasters
    carrying the model halo (>= 3.2 sigma) keep interior wrap
    contributions at the Gaussian-tail level.  Frequencies where every
    kernel's transfer is below ~1e-12 are skipped outright. *)
val convolve_gaussians : Raster.t -> kernels:(float * float) list -> unit
