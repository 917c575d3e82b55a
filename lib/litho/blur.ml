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
   largest raster, box radius and count of distinct rows it has
   served. *)
type work = {
  mutable rows : float array;
      (** the horizontal passes' output (a row of +0.0, then one row per
          distinct non-empty source row) until the first vertical pass
          has read it, then the ring of a middle vertical pass *)
  mutable index : int array;  (** per source row, the offset of its output in [rows] *)
  mutable scratch : float array;  (** the vertical passes' image *)
  mutable lines : float array;  (** two line buffers of four rows each *)
  mutable acc : float array;  (** one running sum per column *)
}

let work () = { rows = [||]; index = [||]; scratch = [||]; lines = [||]; acc = [||] }

let grow a n x = if Array.length a >= n then a else Array.make n x

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

(* All horizontal passes of four rows, read from [src] at offsets
   [from.(0..3)] and written to [dst] at offsets [into.(0..3)]: the
   first pass reads [src], the last writes [dst], and the passes
   between alternate the two four-row line buffers in [lines]. *)
let rows_h4 lines src dst nx widths from into =
  let last = Array.length widths - 1 in
  for p = 0 to last do
    (* Pass p writes line buffer [p mod 2] and reads the other one. *)
    let sb = ((p + 1) land 1) * 4 * nx and db = (p land 1) * 4 * nx in
    let s, s0, s1, s2, s3 =
      if p = 0 then (src, from.(0), from.(1), from.(2), from.(3))
      else (lines, sb, sb + nx, sb + (2 * nx), sb + (3 * nx))
    in
    let d, d0, d1, d2, d3 =
      if p = last then (dst, into.(0), into.(1), into.(2), into.(3))
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

(* Whether the rows at [a] and [b] are [=] pixel by pixel: +0.0 equals
   -0.0, and a NaN equals nothing. *)
let rows_equal data a b nx =
  let i = ref 0 in
  while !i < nx && get data (a + !i) = get data (b + !i) do
    incr i
  done;
  !i = nx

(* The horizontal passes of a whole raster, for a non-empty [widths]:
   each source row [iy] gets its output at offset [index.(iy)] of
   [rows].

   A sliding sum starts at +0.0, and a sum that is not -0.0 stays so
   whatever it adds or subtracts; so +0.0 and -0.0 leave the same sums,
   and rows that are [=] pixel by pixel, which differ at most in the
   signs of zeros, blur to the same bits.  A row that is zero
   throughout thus blurs to a row of +0.0, kept at offset 0 (with no
   pass at all, a -0.0 would stay -0.0), and a row [=] to the row
   above shares that row's output.  A row holding a NaN is [=] to no
   row.  Every other row gets a row of its own, and these run in groups
   of four; a last group of one to three rows repeats its last row,
   whose output is then written more than once with the same value. *)
let horizontal work src nx ny widths =
  let index = work.index and n = ref 1 in
  for iy = 0 to ny - 1 do
    let o = iy * nx in
    index.(iy) <-
      (if row_is_empty src o nx then 0
       else if iy > 0 && rows_equal src (o - nx) o nx then index.(iy - 1)
       else begin
         incr n;
         (!n - 1) * nx
       end)
  done;
  work.rows <- grow work.rows (!n * nx) 0.0;
  let rows = work.rows in
  Array.fill rows 0 nx 0.0;
  let from = Array.make 4 0 and into = Array.make 4 0 and k = ref 0 in
  for iy = 0 to ny - 1 do
    let o = index.(iy) in
    if o > 0 && (iy = 0 || index.(iy - 1) <> o) then begin
      from.(!k) <- iy * nx;
      into.(!k) <- o;
      incr k;
      if !k = 4 then begin
        rows_h4 work.lines src rows nx widths from into;
        k := 0
      end
    end
  done;
  if !k > 0 then begin
    for j = !k to 3 do
      from.(j) <- from.(!k - 1);
      into.(j) <- into.(!k - 1)
    done;
    rows_h4 work.lines src rows nx widths from into
  end

(* The vertical passes sweep rows, one running sum per column in [acc],
   so every access is unit-stride.  Each row operation below runs four
   columns per iteration, then the last [nx mod 4] one at a time; every
   column sees the same float operations in the same order as a
   column-at-a-time sweep, so the result is bit-identical to one.  The
   operations that scale by 1 / w take the box width [w] and compute
   1 / w themselves: a float argument would be boxed, one allocation per
   row. *)

(* acc += row [o] of [a] *)
let add_row acc a o nx =
  for q = 0 to (nx lsr 2) - 1 do
    let i = q lsl 2 in
    set acc i (get acc i +. get a (o + i));
    set acc (i + 1) (get acc (i + 1) +. get a (o + i + 1));
    set acc (i + 2) (get acc (i + 2) +. get a (o + i + 2));
    set acc (i + 3) (get acc (i + 3) +. get a (o + i + 3))
  done;
  for i = nx land lnot 3 to nx - 1 do
    set acc i (get acc i +. get a (o + i))
  done

(* acc -= row [o] of [a] *)
let sub_row acc a o nx =
  for q = 0 to (nx lsr 2) - 1 do
    let i = q lsl 2 in
    set acc i (get acc i -. get a (o + i));
    set acc (i + 1) (get acc (i + 1) -. get a (o + i + 1));
    set acc (i + 2) (get acc (i + 2) -. get a (o + i + 2));
    set acc (i + 3) (get acc (i + 3) -. get a (o + i + 3))
  done;
  for i = nx land lnot 3 to nx - 1 do
    set acc i (get acc i -. get a (o + i))
  done

(* Row [d] of [dst] := acc * (1 / w) *)
let store_row acc dst d w nx =
  let inv = 1.0 /. float_of_int w in
  for q = 0 to (nx lsr 2) - 1 do
    let i = q lsl 2 in
    set dst (d + i) (get acc i *. inv);
    set dst (d + i + 1) (get acc (i + 1) *. inv);
    set dst (d + i + 2) (get acc (i + 2) *. inv);
    set dst (d + i + 3) (get acc (i + 3) *. inv)
  done;
  for i = nx land lnot 3 to nx - 1 do
    set dst (d + i) (get acc i *. inv)
  done

(* Row [d] of [dst] += weight * (acc * (1 / w)), the blend of one
   output row into the intensity *)
let blend_row acc dst d w weight nx =
  let inv = 1.0 /. float_of_int w in
  for q = 0 to (nx lsr 2) - 1 do
    let i = q lsl 2 in
    set dst (d + i) (get dst (d + i) +. (weight *. (get acc i *. inv)));
    set dst (d + i + 1) (get dst (d + i + 1) +. (weight *. (get acc (i + 1) *. inv)));
    set dst (d + i + 2) (get dst (d + i + 2) +. (weight *. (get acc (i + 2) *. inv)));
    set dst (d + i + 3) (get dst (d + i + 3) +. (weight *. (get acc (i + 3) *. inv)))
  done;
  for i = nx land lnot 3 to nx - 1 do
    set dst (d + i) (get dst (d + i) +. (weight *. (get acc i *. inv)))
  done

(* [store_row], then acc := acc + row [e] of [es] - row [l] of [ls], as
   one sweep *)
let slide_store acc es e ls l dst d w nx =
  let inv = 1.0 /. float_of_int w in
  for q = 0 to (nx lsr 2) - 1 do
    let i = q lsl 2 in
    let a = get acc i in
    set dst (d + i) (a *. inv);
    set acc i (a +. get es (e + i) -. get ls (l + i));
    let a = get acc (i + 1) in
    set dst (d + i + 1) (a *. inv);
    set acc (i + 1) (a +. get es (e + i + 1) -. get ls (l + i + 1));
    let a = get acc (i + 2) in
    set dst (d + i + 2) (a *. inv);
    set acc (i + 2) (a +. get es (e + i + 2) -. get ls (l + i + 2));
    let a = get acc (i + 3) in
    set dst (d + i + 3) (a *. inv);
    set acc (i + 3) (a +. get es (e + i + 3) -. get ls (l + i + 3))
  done;
  for i = nx land lnot 3 to nx - 1 do
    let a = get acc i in
    set dst (d + i) (a *. inv);
    set acc i (a +. get es (e + i) -. get ls (l + i))
  done

(* [blend_row], then acc := acc + row [e] of [src] - row [l], as one
   sweep *)
let slide_blend acc src e l dst d w weight nx =
  let inv = 1.0 /. float_of_int w in
  for q = 0 to (nx lsr 2) - 1 do
    let i = q lsl 2 in
    let a = get acc i in
    set dst (d + i) (get dst (d + i) +. (weight *. (a *. inv)));
    set acc i (a +. get src (e + i) -. get src (l + i));
    let a = get acc (i + 1) in
    set dst (d + i + 1) (get dst (d + i + 1) +. (weight *. (a *. inv)));
    set acc (i + 1) (a +. get src (e + i + 1) -. get src (l + i + 1));
    let a = get acc (i + 2) in
    set dst (d + i + 2) (get dst (d + i + 2) +. (weight *. (a *. inv)));
    set acc (i + 2) (a +. get src (e + i + 2) -. get src (l + i + 2));
    let a = get acc (i + 3) in
    set dst (d + i + 3) (get dst (d + i + 3) +. (weight *. (a *. inv)));
    set acc (i + 3) (a +. get src (e + i + 3) -. get src (l + i + 3))
  done;
  for i = nx land lnot 3 to nx - 1 do
    let a = get acc i in
    set dst (d + i) (get dst (d + i) +. (weight *. (a *. inv)));
    set acc i (a +. get src (e + i) -. get src (l + i))
  done

(* One vertical box pass of width [w > 1] out of place: input row [iy]
   starts at offset [at iy] of [src], and output row [iy] goes to
   offset [iy * nx] of [dst], stored, or with [blend] added as [dst +
   weight * out] (the two operations a separate blend applied to the
   stored value).  The input is only read, so the leaving row is still
   intact. *)
let box_v_out src at acc dst nx ny w ~blend ~weight =
  let r = (w - 1) / 2 in
  Array.fill acc 0 nx 0.0;
  for iy = 0 to min (ny - 1) r do
    add_row acc src (at iy) nx
  done;
  for iy = 0 to ny - 1 do
    let d = iy * nx and enter = iy + r + 1 and leave = iy - r in
    if enter < ny && leave >= 0 then
      if blend then slide_blend acc src (at enter) (at leave) dst d w weight nx
      else slide_store acc src (at enter) src (at leave) dst d w nx
    else begin
      if blend then blend_row acc dst d w weight nx else store_row acc dst d w nx;
      if enter < ny then add_row acc src (at enter) nx;
      if leave >= 0 then sub_row acc src (at leave) nx
    end
  done

(* One vertical box pass of width [w > 1] in place.  Output row [iy]
   overwrites input row [iy], which the window still subtracts [r] rows
   later, so the last [r + 1] input rows are kept in [ring]. *)
let box_v data acc ring nx ny w =
  let r = (w - 1) / 2 in
  Array.fill acc 0 nx 0.0;
  for iy = 0 to min (ny - 1) r do
    add_row acc data (iy * nx) nx
  done;
  for iy = 0 to ny - 1 do
    let row = iy * nx and keep = iy mod (r + 1) * nx in
    let enter = iy + r + 1 and leave = iy - r in
    let erow = enter * nx and lrow = leave mod (r + 1) * nx in
    Array.blit data row ring keep nx;
    if enter < ny && leave >= 0 then slide_store acc data erow ring lrow data row w nx
    else begin
      store_row acc data row w nx;
      if enter < ny then add_row acc data erow nx;
      if leave >= 0 then sub_row acc ring lrow nx
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
    let last = Array.length widths - 1 in
    let rmax = (widths.(last) - 1) / 2 in
    work.index <- grow work.index ny 0;
    work.scratch <- grow work.scratch n 0.0;
    work.lines <- grow work.lines (8 * nx) 0.0;
    work.acc <- grow work.acc nx 0.0;
    work.rows <- grow work.rows ((rmax + 1) * nx) 0.0;
    horizontal work s nx ny widths;
    (* The first vertical pass reads the horizontal output through
       [index]; the others read [scratch], and the last adds into
       [dst].  A middle pass keeps its ring in [rows], which the first
       pass has finished reading. *)
    let index = work.index and scratch = work.scratch in
    let indexed iy = index.(iy) and plain iy = iy * nx in
    let pass p src at out =
      box_v_out src at work.acc out nx ny widths.(p) ~blend:(p = last) ~weight
    in
    if last = 0 then pass 0 work.rows indexed d
    else begin
      pass 0 work.rows indexed scratch;
      for p = 1 to last - 1 do
        box_v scratch work.acc work.rows nx ny widths.(p)
      done;
      pass last scratch plain d
    end
  end
