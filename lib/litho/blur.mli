(** Fast Gaussian blur by iterated box filters.

    Three box passes per axis approximate a Gaussian to within ~3% of
    peak while costing O(pixels) independent of the blur radius — the
    property that makes full-row lithographic simulation tractable.
    Box widths per pass follow the standard variance-matching
    selection (Kuckir / W3C filter-effects algorithm). *)

(** [box_sizes ~sigma ~passes] gives the odd box widths (in pixels)
    whose iterated application matches the Gaussian variance. *)
val box_sizes : sigma:float -> passes:int -> int array

(** Reusable work arrays for {!accumulate}: the horizontal passes'
    output, kept compactly as one row of +0.0 and one row per distinct
    non-empty source row, with each source row's offset into it (the
    same array later holds a middle vertical pass's ring of rows); the
    vertical passes' image; line buffers and running sums.  They grow to the largest raster, blur radius and count of
    distinct rows served and are kept for the next call, so repeated
    blurs of one window allocate nothing after the first.  A [work]
    must not be used by two domains at once. *)
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
    adding [weight] times it in a separate pass.

    The horizontal passes run once per distinct source row.  A row that
    is zero throughout shares one row of +0.0, and a row [=] pixel by
    pixel to the row above shares that row's output.  This is exact: a
    running sum starts at +0.0 and can never become -0.0, so +0.0 and
    -0.0 pixels leave the same sums, and rows that differ only in the
    signs of zeros blur to the same bits.  A row holding a NaN is [=]
    to no row, so it is always blurred itself.  The remaining rows run
    four side by side in two small line buffers.

    The vertical passes sweep rows with one running sum per column.
    The first reads the horizontal output through each row's offset,
    a middle one works in place, and the last adds into [dst] directly
    (a single vertical pass does both).  Each runs four columns per loop iteration, then the
    last [nx mod 4] columns one at a time, and every column sees the
    same float operations in the same order as a column-at-a-time
    sweep.

    @raise Invalid_argument when [src] and [dst] differ in nx or ny. *)
val accumulate :
  work -> src:Raster.t -> dst:Raster.t -> sigma_px:float -> weight:float -> unit
