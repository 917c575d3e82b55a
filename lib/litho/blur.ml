let box_sizes ~sigma ~passes =
  if passes <= 0 then invalid_arg "Blur.box_sizes: passes must be positive";
  let n = float_of_int passes in
  let w_ideal = sqrt ((12.0 *. sigma *. sigma /. n) +. 1.0) in
  let wl = int_of_float (floor w_ideal) in
  let wl = if wl mod 2 = 0 then wl - 1 else wl in
  let wl = max 1 wl in
  let wu = wl + 2 in
  let wlf = float_of_int wl in
  let m_ideal =
    ((12.0 *. sigma *. sigma) -. (n *. wlf *. wlf) -. (4.0 *. n *. wlf) -. (3.0 *. n))
    /. ((-4.0 *. wlf) -. 4.0)
  in
  let m = int_of_float (Float.round m_ideal) in
  let m = max 0 (min passes m) in
  Array.init passes (fun i -> if i < m then wl else wu)

(* Unchecked access, typed at [float array] so that every element is
   read and written unboxed (a polymorphic [Array.unsafe_get] would box
   each one).  Every index below is bounded by the raster or buffer
   geometry it walks. *)
external get : float array -> int -> float = "%array_unsafe_get"

external set : float array -> int -> float -> unit = "%array_unsafe_set"

(* Arrays reused from one [accumulate] to the next; each grows to the
   largest raster and box radius it has served. *)
type work = {
  mutable scratch : float array;  (** the horizontal passes' output image *)
  mutable lines : float array;  (** two line buffers of four rows each *)
  mutable acc : float array;  (** one running sum per column *)
  mutable ring : float array;  (** the last r + 1 input rows of a vertical pass *)
}

let work () = { scratch = [||]; lines = [||]; acc = [||]; ring = [||] }

let grow a n = if Array.length a >= n then a else Array.make n 0.0

(* One horizontal box pass of odd width [w > 1] with zero padding over
   four rows at once: row k is read from [src] at offset [sk] and
   written to [dst] at offset [dk].  Each row keeps the single-row
   sliding sum's order of operations (output, then add the entering
   pixel, then subtract the leaving one); running four rows side by
   side makes four independent dependency chains.  The loop over
   columns is split where the entering pixel leaves the row ([ix >= e])
   and where the leaving pixel enters it ([ix >= l]), so no iteration
   tests a bound. *)
let box_h4 src s0 s1 s2 s3 dst d0 d1 d2 d3 nx w =
  let r = (w - 1) / 2 in
  let inv = 1.0 /. float_of_int w in
  let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
  for ix = 0 to min (nx - 1) r do
    a0 := !a0 +. get src (s0 + ix);
    a1 := !a1 +. get src (s1 + ix);
    a2 := !a2 +. get src (s2 + ix);
    a3 := !a3 +. get src (s3 + ix)
  done;
  let e = max 0 (nx - r - 1) and l = min nx r in
  for ix = 0 to min e l - 1 do
    let j = ix + r + 1 in
    set dst (d0 + ix) (!a0 *. inv);
    set dst (d1 + ix) (!a1 *. inv);
    set dst (d2 + ix) (!a2 *. inv);
    set dst (d3 + ix) (!a3 *. inv);
    a0 := !a0 +. get src (s0 + j);
    a1 := !a1 +. get src (s1 + j);
    a2 := !a2 +. get src (s2 + j);
    a3 := !a3 +. get src (s3 + j)
  done;
  if e <= l then
    for ix = e to l - 1 do
      set dst (d0 + ix) (!a0 *. inv);
      set dst (d1 + ix) (!a1 *. inv);
      set dst (d2 + ix) (!a2 *. inv);
      set dst (d3 + ix) (!a3 *. inv)
    done
  else
    for ix = l to e - 1 do
      let j = ix + r + 1 and k = ix - r in
      set dst (d0 + ix) (!a0 *. inv);
      set dst (d1 + ix) (!a1 *. inv);
      set dst (d2 + ix) (!a2 *. inv);
      set dst (d3 + ix) (!a3 *. inv);
      a0 := !a0 +. get src (s0 + j) -. get src (s0 + k);
      a1 := !a1 +. get src (s1 + j) -. get src (s1 + k);
      a2 := !a2 +. get src (s2 + j) -. get src (s2 + k);
      a3 := !a3 +. get src (s3 + j) -. get src (s3 + k)
    done;
  for ix = max e l to nx - 1 do
    let k = ix - r in
    set dst (d0 + ix) (!a0 *. inv);
    set dst (d1 + ix) (!a1 *. inv);
    set dst (d2 + ix) (!a2 *. inv);
    set dst (d3 + ix) (!a3 *. inv);
    a0 := !a0 -. get src (s0 + k);
    a1 := !a1 -. get src (s1 + k);
    a2 := !a2 -. get src (s2 + k);
    a3 := !a3 -. get src (s3 + k)
  done

(* All horizontal passes of four rows at offsets [o0..o3]: the first
   pass reads [src], the last writes [dst], and the passes between
   alternate the two four-row line buffers in [lines]. *)
let rows_h4 lines src dst nx widths o0 o1 o2 o3 =
  let last = Array.length widths - 1 in
  for p = 0 to last do
    (* Pass p writes line buffer [p mod 2] and reads the other one. *)
    let sb = ((p + 1) land 1) * 4 * nx and db = (p land 1) * 4 * nx in
    let s, s0, s1, s2, s3 =
      if p = 0 then (src, o0, o1, o2, o3)
      else (lines, sb, sb + nx, sb + (2 * nx), sb + (3 * nx))
    in
    let d, d0, d1, d2, d3 =
      if p = last then (dst, o0, o1, o2, o3)
      else (lines, db, db + nx, db + (2 * nx), db + (3 * nx))
    in
    box_h4 s s0 s1 s2 s3 d d0 d1 d2 d3 nx widths.(p)
  done

let row_is_empty data off nx =
  let i = ref 0 in
  while !i < nx && get data (off + !i) = 0.0 do
    incr i
  done;
  !i = nx

(* The horizontal passes of a whole raster, [src] into [dst], for a
   non-empty [widths].  A row that is zero throughout (+0.0 or -0.0)
   blurs to a row of +0.0: a sliding sum that starts at +0.0 and only
   adds and subtracts zeros stays +0.0 (with no pass at all, a -0.0
   would stay -0.0).  Such rows are written directly; the others run in
   groups of four, and a last group of one to three rows repeats its
   last row, whose output is then written more than once with the same
   value. *)
let horizontal lines src dst nx ny widths =
  let group = Array.make 4 0 and n = ref 0 in
  for iy = 0 to ny - 1 do
    let o = iy * nx in
    if row_is_empty src o nx then Array.fill dst o nx 0.0
    else begin
      group.(!n) <- o;
      incr n;
      if !n = 4 then begin
        rows_h4 lines src dst nx widths group.(0) group.(1) group.(2) group.(3);
        n := 0
      end
    end
  done;
  if !n > 0 then begin
    let g k = group.(min k (!n - 1)) in
    rows_h4 lines src dst nx widths (g 0) (g 1) (g 2) (g 3)
  end

(* One vertical box pass of width [w > 1], in place, swept row by row
   so every access is unit-stride: [acc] holds one running sum per
   column.  Output row [iy] overwrites input row [iy], which the window
   still subtracts [r] rows later, so the last [r + 1] input rows are
   kept in [ring].  Each column sees the same adds and subtracts in the
   same order as a column-at-a-time sweep, so the result is
   bit-identical to one.  Rows that both add and subtract run as one
   fused sweep. *)
let box_v data acc ring nx ny w =
  let r = (w - 1) / 2 in
  let inv = 1.0 /. float_of_int w in
  Array.fill acc 0 nx 0.0;
  for iy = 0 to min (ny - 1) r do
    let row = iy * nx in
    for ix = 0 to nx - 1 do
      set acc ix (get acc ix +. get data (row + ix))
    done
  done;
  for iy = 0 to ny - 1 do
    let row = iy * nx and keep = iy mod (r + 1) * nx in
    let enter = iy + r + 1 and leave = iy - r in
    let erow = enter * nx and lrow = leave mod (r + 1) * nx in
    if enter < ny && leave >= 0 then
      for ix = 0 to nx - 1 do
        let a = get acc ix in
        set ring (keep + ix) (get data (row + ix));
        set data (row + ix) (a *. inv);
        set acc ix (a +. get data (erow + ix) -. get ring (lrow + ix))
      done
    else begin
      for ix = 0 to nx - 1 do
        set ring (keep + ix) (get data (row + ix));
        set data (row + ix) (get acc ix *. inv)
      done;
      if enter < ny then
        for ix = 0 to nx - 1 do
          set acc ix (get acc ix +. get data (erow + ix))
        done;
      if leave >= 0 then
        for ix = 0 to nx - 1 do
          set acc ix (get acc ix -. get ring (lrow + ix))
        done
    end
  done

(* The last vertical pass, fused with the blend: output pixel [v] of
   row [iy] goes straight into [dst] as [dst + weight * v], the same
   two operations a separate blend applied to the stored [v].  [data]
   is only read, so no ring is needed: the leaving row is still
   intact. *)
let box_v_blend data acc dst nx ny w ~weight =
  let r = (w - 1) / 2 in
  let inv = 1.0 /. float_of_int w in
  Array.fill acc 0 nx 0.0;
  for iy = 0 to min (ny - 1) r do
    let row = iy * nx in
    for ix = 0 to nx - 1 do
      set acc ix (get acc ix +. get data (row + ix))
    done
  done;
  for iy = 0 to ny - 1 do
    let row = iy * nx in
    let enter = iy + r + 1 and leave = iy - r in
    let erow = enter * nx and lrow = leave * nx in
    if enter < ny && leave >= 0 then
      for ix = 0 to nx - 1 do
        let a = get acc ix in
        set dst (row + ix) (get dst (row + ix) +. (weight *. (a *. inv)));
        set acc ix (a +. get data (erow + ix) -. get data (lrow + ix))
      done
    else begin
      for ix = 0 to nx - 1 do
        set dst (row + ix) (get dst (row + ix) +. (weight *. (get acc ix *. inv)))
      done;
      if enter < ny then
        for ix = 0 to nx - 1 do
          set acc ix (get acc ix +. get data (erow + ix))
        done;
      if leave >= 0 then
        for ix = 0 to nx - 1 do
          set acc ix (get acc ix -. get data (lrow + ix))
        done
    end
  done

let accumulate work ~src ~dst ~sigma_px ~weight =
  let nx = Raster.nx src and ny = Raster.ny src in
  if Raster.nx dst <> nx || Raster.ny dst <> ny then
    invalid_arg "Blur.accumulate: geometry mismatch";
  let s = Raster.unsafe_data src and d = Raster.unsafe_data dst in
  (* A width-1 box is the identity and is skipped, as is the whole
     blur at or below a quarter pixel. *)
  let widths =
    if sigma_px > 0.25 then
      Array.of_list
        (List.filter (fun w -> w > 1) (Array.to_list (box_sizes ~sigma:sigma_px ~passes:3)))
    else [||]
  in
  let n = nx * ny in
  if Array.length widths = 0 then
    for i = 0 to n - 1 do
      set d i (get d i +. (weight *. get s i))
    done
  else begin
    let rmax = (widths.(Array.length widths - 1) - 1) / 2 in
    work.scratch <- grow work.scratch n;
    work.lines <- grow work.lines (8 * nx);
    work.acc <- grow work.acc nx;
    work.ring <- grow work.ring ((rmax + 1) * nx);
    let scratch = work.scratch in
    horizontal work.lines s scratch nx ny widths;
    let last = Array.length widths - 1 in
    for p = 0 to last - 1 do
      box_v scratch work.acc work.ring nx ny widths.(p)
    done;
    box_v_blend scratch work.acc d nx ny widths.(last) ~weight
  end
