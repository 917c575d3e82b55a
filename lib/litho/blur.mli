(** Fast Gaussian blur by iterated box filters.

    Three box passes per axis approximate a Gaussian to within ~3% of
    peak while costing O(pixels) independent of the blur radius — the
    property that makes full-row lithographic simulation tractable.
    Box widths per pass follow the standard variance-matching
    selection (Kuckir / W3C filter-effects algorithm). *)

(** [box_sizes ~sigma ~passes] gives the odd box widths (in pixels)
    whose iterated application matches the Gaussian variance. *)
val box_sizes : sigma:float -> passes:int -> int array

(** Reusable work arrays for {!accumulate}: a blurred copy of the
    source, line buffers, running sums and a ring of rows.  They grow
    to the largest raster and blur radius served and are kept for the
    next call, so repeated blurs of one window allocate nothing after
    the first.  A [work] must not be used by two domains at once. *)
type work

val work : unit -> work

(** [accumulate work ~src ~dst ~sigma_px ~weight] adds [weight] times
    the Gaussian blur of [src] to [dst], pixel by pixel: [dst := dst +
    weight * G(src)], where [G] is three box passes along rows, then
    three down columns, of the {!box_sizes} widths for [sigma_px]
    pixels, with zero padding outside.  A width-1 pass is the identity
    and is skipped, and so is the whole blur for [sigma_px <= 0.25].
    [src] is not modified.

    Each pixel of [dst] is bit-identical to blurring a copy of [src]
    one row, then one column, at a time with running box sums, and
    adding [weight] times it in a separate pass.  The horizontal passes
    run four rows side by side in two small line buffers; a row of
    [src] that is zero throughout is written as zeros without being
    summed.  The vertical passes sweep rows with one running sum per
    column, and the last one adds into [dst] directly.

    @raise Invalid_argument when [src] and [dst] differ in nx or ny. *)
val accumulate :
  work -> src:Raster.t -> dst:Raster.t -> sigma_px:float -> weight:float -> unit
