(* Iterative radix-2 FFT on flat float arrays.  Everything here is
   stdlib-only and allocation-conscious: plans (bit-reversal table +
   twiddle factors) are built once per transform size and reused
   across the rows of a pass, and the aerial convolution below
   works in scratch grids with blocked transposes so every 1-D
   transform runs over contiguous memory. *)

let next_pow2 n =
  let p = ref 1 in
  while !p < n do
    p := !p * 2
  done;
  !p

type plan = {
  n : int;
  rev : int array;  (* bit-reversal permutation *)
  wre : float array;  (* twiddle cos table, j < n/2 *)
  wim_f : float array;  (* forward twiddle sin: e^{-2πij/n} *)
  wim_b : float array;  (* inverse twiddle sin: e^{+2πij/n} *)
}

let plan n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Fft.plan: length must be a power of two";
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  let bits = !bits in
  let rev = Array.make n 0 in
  for i = 1 to n - 1 do
    rev.(i) <- (rev.(i lsr 1) lsr 1) lor ((i land 1) lsl (bits - 1))
  done;
  let half = max 1 (n / 2) in
  let wre = Array.make half 1.0 in
  let wim_f = Array.make half 0.0 and wim_b = Array.make half 0.0 in
  for j = 0 to (n / 2) - 1 do
    let a = -2.0 *. Float.pi *. float_of_int j /. float_of_int n in
    wre.(j) <- cos a;
    wim_f.(j) <- sin a;
    wim_b.(j) <- -.sin a
  done;
  { n; rev; wre; wim_f; wim_b }

(* In-place transform of the [p.n] complex samples starting at [off];
   [inverse] selects the conjugated twiddles.  The inverse 1/n factor
   is the caller's.  The first two stages are special-cased: their
   twiddles are 1 and ±i, so they run without table loads. *)
let transform p re im ~off ~inverse =
  let n = p.n in
  let rev = p.rev and twre = p.wre in
  let twim = if inverse then p.wim_b else p.wim_f in
  for i = 0 to n - 1 do
    let j = Array.unsafe_get rev i in
    if i < j then begin
      let ai = off + i and aj = off + j in
      let t = Array.unsafe_get re ai in
      Array.unsafe_set re ai (Array.unsafe_get re aj);
      Array.unsafe_set re aj t;
      let t = Array.unsafe_get im ai in
      Array.unsafe_set im ai (Array.unsafe_get im aj);
      Array.unsafe_set im aj t
    end
  done;
  if n >= 2 then begin
    let i = ref off in
    let stop = off + n in
    while !i < stop do
      let a = !i and b = !i + 1 in
      let ar = Array.unsafe_get re a and ai = Array.unsafe_get im a in
      let br = Array.unsafe_get re b and bi = Array.unsafe_get im b in
      Array.unsafe_set re a (ar +. br);
      Array.unsafe_set im a (ai +. bi);
      Array.unsafe_set re b (ar -. br);
      Array.unsafe_set im b (ai -. bi);
      i := !i + 2
    done
  end;
  if n >= 4 then begin
    (* len = 4: j=0 has w = 1; j=1 has w = ∓i, i.e. w·z = (±zi, ∓zr). *)
    let s = if inverse then -1.0 else 1.0 in
    let i = ref off in
    let stop = off + n in
    while !i < stop do
      let a = !i and b = !i + 2 in
      let ar = Array.unsafe_get re a and ai = Array.unsafe_get im a in
      let br = Array.unsafe_get re b and bi = Array.unsafe_get im b in
      Array.unsafe_set re a (ar +. br);
      Array.unsafe_set im a (ai +. bi);
      Array.unsafe_set re b (ar -. br);
      Array.unsafe_set im b (ai -. bi);
      let a = !i + 1 and b = !i + 3 in
      let br = Array.unsafe_get re b and bi = Array.unsafe_get im b in
      let tr = s *. bi and ti = -.s *. br in
      let ar = Array.unsafe_get re a and ai = Array.unsafe_get im a in
      Array.unsafe_set re b (ar -. tr);
      Array.unsafe_set im b (ai -. ti);
      Array.unsafe_set re a (ar +. tr);
      Array.unsafe_set im a (ai +. ti);
      i := !i + 4
    done
  end;
  let len = ref 8 in
  while !len <= n do
    let l = !len in
    let half = l lsr 1 in
    let stride = n / l in
    let i0 = ref off in
    let stop = off + n in
    while !i0 < stop do
      let base = !i0 in
      for j = 0 to half - 1 do
        let wr = Array.unsafe_get twre (j * stride) in
        let wi = Array.unsafe_get twim (j * stride) in
        let a = base + j and b = base + j + half in
        let br = Array.unsafe_get re b and bi = Array.unsafe_get im b in
        let tr = (wr *. br) -. (wi *. bi) in
        let ti = (wr *. bi) +. (wi *. br) in
        let ar = Array.unsafe_get re a and ai = Array.unsafe_get im a in
        Array.unsafe_set re b (ar -. tr);
        Array.unsafe_set im b (ai -. ti);
        Array.unsafe_set re a (ar +. tr);
        Array.unsafe_set im a (ai +. ti)
      done;
      i0 := base + l
    done;
    len := l * 2
  done

let check_pair re im name =
  if Array.length re <> Array.length im then
    invalid_arg (name ^ ": re/im length mismatch")

let fft ~re ~im =
  check_pair re im "Fft.fft";
  let p = plan (Array.length re) in
  transform p re im ~off:0 ~inverse:false

let ifft ~re ~im =
  check_pair re im "Fft.ifft";
  let n = Array.length re in
  let p = plan n in
  transform p re im ~off:0 ~inverse:true;
  let s = 1.0 /. float_of_int n in
  for i = 0 to n - 1 do
    re.(i) <- re.(i) *. s;
    im.(i) <- im.(i) *. s
  done

(* ---- aerial kernel-stack convolution ---------------------------- *)

(* Blocked transpose of the sub-rectangle rows [r0, r1] x cols
   [c0, c1] of [src] ([rows] x [cols] row-major) into the mirrored
   sub-rectangle of [dst] ([cols] x [rows]).  The band-pruned passes
   below move only the frequency columns the transfer function keeps
   alive, so the sub-rectangle is the common case. *)
let transpose_sub ~src ~dst ~rows ~cols ~r0 ~r1 ~c0 ~c1 =
  ignore rows;
  let blk = 32 in
  let rr = ref r0 in
  while !rr <= r1 do
    let rmax = min r1 (!rr + blk - 1) in
    let cc = ref c0 in
    while !cc <= c1 do
      let cmax = min c1 (!cc + blk - 1) in
      for r = !rr to rmax do
        let base = r * cols in
        for c = !cc to cmax do
          Array.unsafe_set dst ((c * rows) + r) (Array.unsafe_get src (base + c))
        done
      done;
      cc := cmax + 1
    done;
    rr := rmax + 1
  done

(* Transfer of one Gaussian along one axis: h.(i) = exp(-2π²σ²f²)
   with f the signed frequency of bin i.  h is even (h.(i) = h.(n-i)),
   which keeps the product spectrum conjugate-symmetric and the
   inverse transform real. *)
let transfer_axis n ~sigma_px =
  let h = Array.make n 1.0 in
  let c = -2.0 *. Float.pi *. Float.pi *. sigma_px *. sigma_px in
  for i = 0 to n - 1 do
    let k = if i <= n / 2 then i else i - n in
    let f = float_of_int k /. float_of_int n in
    h.(i) <- exp (c *. f *. f)
  done;
  h

(* Below this, every kernel's transfer is treated as zero; the
   corresponding frequency columns are never transformed at all. *)
let band_eps = 1e-12

let band_halfwidth n ~sigma_min =
  if sigma_min <= 0.0 then n / 2
  else
    let fmax =
      sqrt
        (log (1.0 /. band_eps)
        /. (2.0 *. Float.pi *. Float.pi *. sigma_min *. sigma_min))
    in
    min (n / 2) (int_of_float (ceil (fmax *. float_of_int n)))

let convolve_gaussians raster ~kernels =
  if kernels = [] then invalid_arg "Fft.convolve_gaussians: no kernels";
  let nx = Raster.nx raster and ny = Raster.ny raster in
  let data = Raster.unsafe_data raster in
  let px = next_pow2 nx and py = next_pow2 ny in
  let pl_x = plan px and pl_y = plan py in
  let sigma_min =
    List.fold_left (fun acc (s, _) -> Float.min acc s) infinity kernels
  in
  (* Alive bands: bins [0, b] and [n-b, n-1] along each axis; outside
     them every kernel's transfer is < band_eps and the spectrum is
     treated as zero. *)
  let bx = band_halfwidth px ~sigma_min in
  let by = band_halfwidth py ~sigma_min in
  (* Real input makes column px-fx the conjugate mirror of column fx,
     so only columns [0, bx] are untangled, transposed, transformed
     and multiplied; the mirror half is reconstructed during the
     inverse row pack below. *)
  let xhi0 = max (bx + 1) (px - bx) in
  (* Grids are deliberately uninitialised: every cell the band-pruned
     passes read is written first (dead frequency columns are never
     touched on either side of a transpose). *)
  let re = Array.create_float (px * py) and im = Array.create_float (px * py) in
  let wre = Array.make px 0.0 and wim = Array.make px 0.0 in
  (* Forward row pass, two real rows packed per complex transform:
     FFT(a + ib) untangles into the spectra of a and b because both
     are real.  Only alive bins are untangled. *)
  let untangle k ~row0 ~row1 ~both =
    let nk = (px - k) land (px - 1) in
    let crk = Array.unsafe_get wre k and cik = Array.unsafe_get wim k in
    let crn = Array.unsafe_get wre nk and cin_ = Array.unsafe_get wim nk in
    Array.unsafe_set re (row0 + k) (0.5 *. (crk +. crn));
    Array.unsafe_set im (row0 + k) (0.5 *. (cik -. cin_));
    if both then begin
      Array.unsafe_set re (row1 + k) (0.5 *. (cik +. cin_));
      Array.unsafe_set im (row1 + k) (0.5 *. (crn -. crk))
    end
  in
  let r = ref 0 in
  while !r < ny do
    let y0 = !r and y1 = !r + 1 in
    Array.blit data (y0 * nx) wre 0 nx;
    Array.fill wre nx (px - nx) 0.0;
    if y1 < ny then begin
      Array.blit data (y1 * nx) wim 0 nx;
      Array.fill wim nx (px - nx) 0.0
    end
    else Array.fill wim 0 px 0.0;
    transform pl_x wre wim ~off:0 ~inverse:false;
    let row0 = y0 * px and row1 = y1 * px in
    let both = y1 < ny in
    for k = 0 to bx do
      untangle k ~row0 ~row1 ~both
    done;
    r := !r + 2
  done;
  (* Mask rows above ny are zero; the alive columns of those rows are
     read by the transpose below. *)
  if py > ny then begin
    Array.fill re (ny * px) ((py - ny) * px) 0.0;
    Array.fill im (ny * px) ((py - ny) * px) 0.0
  end;
  (* Column passes run on the transposed grid so each length-py
     transform is contiguous; only alive columns are moved. *)
  let tre = Array.create_float (px * py) and tim = Array.create_float (px * py) in
  let transpose_alive ~src ~dst ~fwd =
    if fwd then
      transpose_sub ~src ~dst ~rows:py ~cols:px ~r0:0 ~r1:(py - 1) ~c0:0 ~c1:bx
    else
      transpose_sub ~src ~dst ~rows:px ~cols:py ~r0:0 ~r1:bx ~c0:0 ~c1:(py - 1)
  in
  transpose_alive ~src:re ~dst:tre ~fwd:true;
  transpose_alive ~src:im ~dst:tim ~fwd:true;
  let ks = Array.of_list kernels in
  let nk = Array.length ks in
  let hx = Array.map (fun (s, _) -> transfer_axis px ~sigma_px:s) ks in
  let hy = Array.map (fun (s, _) -> transfer_axis py ~sigma_px:s) ks in
  let yhi0 = max (by + 1) (py - by) in
  let inv_py = 1.0 /. float_of_int py in
  let hrow = Array.make py 0.0 in
  let col_pass fx =
    let off = fx * py in
    transform pl_y tre tim ~off ~inverse:false;
    (* Accumulated transfer for this fx column; the inverse column
       scale 1/py rides along for free.  Dead fy bins are zeroed
       rather than multiplied. *)
    Array.fill hrow 0 (by + 1) 0.0;
    Array.fill hrow yhi0 (py - yhi0) 0.0;
    for k = 0 to nk - 1 do
      let _, w = ks.(k) in
      let c = w *. hx.(k).(fx) *. inv_py in
      if c <> 0.0 then begin
        let hyk = hy.(k) in
        for fy = 0 to by do
          Array.unsafe_set hrow fy
            (Array.unsafe_get hrow fy +. (c *. Array.unsafe_get hyk fy))
        done;
        for fy = yhi0 to py - 1 do
          Array.unsafe_set hrow fy
            (Array.unsafe_get hrow fy +. (c *. Array.unsafe_get hyk fy))
        done
      end
    done;
    let mul fy =
      let h = Array.unsafe_get hrow fy in
      Array.unsafe_set tre (off + fy) (h *. Array.unsafe_get tre (off + fy));
      Array.unsafe_set tim (off + fy) (h *. Array.unsafe_get tim (off + fy))
    in
    for fy = 0 to by do
      mul fy
    done;
    if yhi0 > by + 1 then begin
      Array.fill tre (off + by + 1) (yhi0 - by - 1) 0.0;
      Array.fill tim (off + by + 1) (yhi0 - by - 1) 0.0
    end;
    for fy = yhi0 to py - 1 do
      mul fy
    done;
    transform pl_y tre tim ~off ~inverse:true
  in
  for fx = 0 to bx do
    col_pass fx
  done;
  transpose_alive ~src:tre ~dst:re ~fwd:false;
  transpose_alive ~src:tim ~dst:im ~fwd:false;
  (* Inverse row pass: each row spectrum is conjugate-symmetric (real
     result), so two rows pack into one complex inverse transform:
     ifft(U + iV) = u + iv with u, v real.  Dead bins are zero. *)
  let inv_px = 1.0 /. float_of_int px in
  let dead0 = bx + 1 in
  let ndead = xhi0 - dead0 in
  let r = ref 0 in
  while !r < ny do
    let y0 = !r and y1 = !r + 1 in
    let row0 = y0 * px and row1 = y1 * px in
    if ndead > 0 then begin
      Array.fill wre dead0 ndead 0.0;
      Array.fill wim dead0 ndead 0.0
    end;
    (* W = U + iV packs the two conjugate-symmetric row spectra; the
       mirror bin px-j is rebuilt from bin j via U(px-j) = conj U(j),
       V(px-j) = conj V(j). *)
    let pack j =
      let re0 = Array.unsafe_get re (row0 + j)
      and im0 = Array.unsafe_get im (row0 + j) in
      let re1, im1 =
        if y1 < ny then
          (Array.unsafe_get re (row1 + j), Array.unsafe_get im (row1 + j))
        else (0.0, 0.0)
      in
      Array.unsafe_set wre j (re0 -. im1);
      Array.unsafe_set wim j (im0 +. re1);
      if j > 0 && j < px - j then begin
        Array.unsafe_set wre (px - j) (re0 +. im1);
        Array.unsafe_set wim (px - j) (re1 -. im0)
      end
    in
    for j = 0 to bx do
      pack j
    done;
    transform pl_x wre wim ~off:0 ~inverse:true;
    for x = 0 to nx - 1 do
      data.((y0 * nx) + x) <- inv_px *. Array.unsafe_get wre x
    done;
    if y1 < ny then
      for x = 0 to nx - 1 do
        data.((y1 * nx) + x) <- inv_px *. Array.unsafe_get wim x
      done;
    r := !r + 2
  done
