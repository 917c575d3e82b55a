module G = Geometry

type t = {
  origin : G.Point.t;
  step : float;
  nx : int;
  ny : int;
  data : float array;
}

let create ~origin ~step ~nx ~ny =
  if nx <= 0 || ny <= 0 then invalid_arg "Raster.create: empty raster";
  if step <= 0.0 then invalid_arg "Raster.create: step must be positive";
  { origin; step; nx; ny; data = Array.make (nx * ny) 0.0 }

let of_window ~window ~halo ~step =
  let w = G.Rect.inflate window halo in
  let nx = int_of_float (ceil (float_of_int (G.Rect.width w) /. step)) + 1 in
  let ny = int_of_float (ceil (float_of_int (G.Rect.height w) /. step)) + 1 in
  create ~origin:(G.Point.make w.G.Rect.lx w.G.Rect.ly) ~step ~nx ~ny

(* Geometry-only raster: same origin/step/nx/ny as [of_window] but no
   pixel storage.  Cache lookups need only the geometry (extent, key,
   origin); skipping the nx*ny zero-fill keeps the hit path free of
   the dominant allocation.  [like] materialises real storage. *)
let shape_of_window ~window ~halo ~step =
  let w = G.Rect.inflate window halo in
  let nx = int_of_float (ceil (float_of_int (G.Rect.width w) /. step)) + 1 in
  let ny = int_of_float (ceil (float_of_int (G.Rect.height w) /. step)) + 1 in
  if nx <= 0 || ny <= 0 then invalid_arg "Raster.shape_of_window: empty raster";
  if step <= 0.0 then invalid_arg "Raster.shape_of_window: step must be positive";
  { origin = G.Point.make w.G.Rect.lx w.G.Rect.ly; step; nx; ny; data = [||] }

let nx t = t.nx

let ny t = t.ny

let step t = t.step

let origin t = t.origin

let get t ix iy = t.data.((iy * t.nx) + ix)

let set t ix iy v = t.data.((iy * t.nx) + ix) <- v

let fill t v = Array.fill t.data 0 (Array.length t.data) v

let copy t = { t with data = Array.copy t.data }

let like t = { t with data = Array.make (t.nx * t.ny) 0.0 }

let relocate t ~origin = { t with origin }

let paint_rect ?(clamp = false) t (r : G.Rect.t) =
  (* Coverage weight of the rect against pixel column ix is the overlap
     of [lx, hx] with the pixel's x-span, in pixel units; likewise rows.
     The contribution is the separable product.  With [clamp], pixels
     the rect touches are capped at 1.0 after accumulation; since
     contributions are non-negative, clamping per touched span is
     bit-identical to one final clamp over the whole raster
     (min (min (a+b) 1 + c) 1 = min (a+b+c) 1), but only ever visits
     painted pixels. *)
  let lx = float_of_int (r.G.Rect.lx - t.origin.G.Point.x) /. t.step in
  let hx = float_of_int (r.G.Rect.hx - t.origin.G.Point.x) /. t.step in
  let ly = float_of_int (r.G.Rect.ly - t.origin.G.Point.y) /. t.step in
  let hy = float_of_int (r.G.Rect.hy - t.origin.G.Point.y) /. t.step in
  let ix0 = max 0 (int_of_float (floor lx)) in
  let ix1 = min (t.nx - 1) (int_of_float (ceil hx) - 1) in
  let iy0 = max 0 (int_of_float (floor ly)) in
  let iy1 = min (t.ny - 1) (int_of_float (ceil hy) - 1) in
  if ix1 >= ix0 && iy1 >= iy0 then begin
    let wx = Array.make (ix1 - ix0 + 1) 0.0 in
    for ix = ix0 to ix1 do
      let plo = float_of_int ix and phi = float_of_int (ix + 1) in
      wx.(ix - ix0) <- Float.max 0.0 (Float.min hx phi -. Float.max lx plo)
    done;
    for iy = iy0 to iy1 do
      let plo = float_of_int iy and phi = float_of_int (iy + 1) in
      let wy = Float.max 0.0 (Float.min hy phi -. Float.max ly plo) in
      let row = iy * t.nx in
      if clamp then
        for ix = ix0 to ix1 do
          let v = t.data.(row + ix) +. (wx.(ix - ix0) *. wy) in
          t.data.(row + ix) <- (if v > 1.0 then 1.0 else v)
        done
      else
        for ix = ix0 to ix1 do
          t.data.(row + ix) <- t.data.(row + ix) +. (wx.(ix - ix0) *. wy)
        done
    done
  end

let sample t x y =
  (* Bilinear over pixel centres, clamped at borders. *)
  let fx = ((x -. float_of_int t.origin.G.Point.x) /. t.step) -. 0.5 in
  let fy = ((y -. float_of_int t.origin.G.Point.y) /. t.step) -. 0.5 in
  let clamp v lo hi = Float.max lo (Float.min hi v) in
  let fx = clamp fx 0.0 (float_of_int (t.nx - 1)) in
  let fy = clamp fy 0.0 (float_of_int (t.ny - 1)) in
  let ix = min (t.nx - 2) (max 0 (int_of_float (floor fx))) in
  let iy = min (t.ny - 2) (max 0 (int_of_float (floor fy))) in
  let ax = fx -. float_of_int ix and ay = fy -. float_of_int iy in
  let ix = if t.nx = 1 then 0 else ix and iy = if t.ny = 1 then 0 else iy in
  if t.nx = 1 || t.ny = 1 then get t ix iy
  else
    let v00 = get t ix iy and v10 = get t (ix + 1) iy in
    let v01 = get t ix (iy + 1) and v11 = get t (ix + 1) (iy + 1) in
    ((v00 *. (1.0 -. ax)) +. (v10 *. ax)) *. (1.0 -. ay)
    +. (((v01 *. (1.0 -. ax)) +. (v11 *. ax)) *. ay)

let x_of_ix t ix = float_of_int t.origin.G.Point.x +. ((float_of_int ix +. 0.5) *. t.step)

let y_of_iy t iy = float_of_int t.origin.G.Point.y +. ((float_of_int iy +. 0.5) *. t.step)

let max_value t = Array.fold_left Float.max neg_infinity t.data

(* Internal access for the convolution engines. *)
let unsafe_data t = t.data
