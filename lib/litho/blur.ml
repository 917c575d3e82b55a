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

(* One horizontal box pass of odd width [w] with zero padding, using a
   sliding-window sum per row. *)
let box_h data nx ny w =
  if w > 1 then begin
    let r = (w - 1) / 2 in
    let inv = 1.0 /. float_of_int w in
    let tmp = Array.make nx 0.0 in
    for iy = 0 to ny - 1 do
      let row = iy * nx in
      let acc = ref 0.0 in
      for ix = 0 to min (nx - 1) r do
        acc := !acc +. data.(row + ix)
      done;
      for ix = 0 to nx - 1 do
        tmp.(ix) <- !acc *. inv;
        let enter = ix + r + 1 and leave = ix - r in
        if enter < nx then acc := !acc +. data.(row + enter);
        if leave >= 0 then acc := !acc -. data.(row + leave)
      done;
      Array.blit tmp 0 data row nx
    done
  end

(* One vertical box pass, swept row by row so every access is
   unit-stride: [acc] holds one running sum per column.  Output row
   [iy] overwrites input row [iy], which the window still subtracts
   [r] rows later, so the last [r + 1] input rows are kept in [ring].
   Each column sees the same adds and subtracts in the same order as a
   column-at-a-time sweep, so the result is bit-identical to one.
   Rows that both add and subtract run as one fused sweep. *)
let box_v data nx ny w =
  if w > 1 then begin
    let r = (w - 1) / 2 in
    let inv = 1.0 /. float_of_int w in
    let acc = Array.make nx 0.0 in
    let ring = Array.make ((r + 1) * nx) 0.0 in
    for iy = 0 to min (ny - 1) r do
      let row = iy * nx in
      for ix = 0 to nx - 1 do
        acc.(ix) <- acc.(ix) +. data.(row + ix)
      done
    done;
    for iy = 0 to ny - 1 do
      let row = iy * nx and keep = iy mod (r + 1) * nx in
      let enter = iy + r + 1 and leave = iy - r in
      let erow = enter * nx and lrow = leave mod (r + 1) * nx in
      if enter < ny && leave >= 0 then
        for ix = 0 to nx - 1 do
          let a = acc.(ix) in
          ring.(keep + ix) <- data.(row + ix);
          data.(row + ix) <- a *. inv;
          acc.(ix) <- a +. data.(erow + ix) -. ring.(lrow + ix)
        done
      else begin
        for ix = 0 to nx - 1 do
          ring.(keep + ix) <- data.(row + ix);
          data.(row + ix) <- acc.(ix) *. inv
        done;
        if enter < ny then
          for ix = 0 to nx - 1 do
            acc.(ix) <- acc.(ix) +. data.(erow + ix)
          done;
        if leave >= 0 then
          for ix = 0 to nx - 1 do
            acc.(ix) <- acc.(ix) -. ring.(lrow + ix)
          done
      end
    done
  end

let gaussian raster ~sigma_px =
  if sigma_px > 0.25 then begin
    let data = Raster.unsafe_data raster in
    let nx = Raster.nx raster and ny = Raster.ny raster in
    let sizes = box_sizes ~sigma:sigma_px ~passes:3 in
    Array.iter (fun w -> box_h data nx ny w) sizes;
    Array.iter (fun w -> box_v data nx ny w) sizes
  end
