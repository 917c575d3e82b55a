module G = Geometry

type t = {
  inner_area : float;
  outer_area : float;
  band_area : float;
  conditions : int;
}

let compute ?(pool = Exec.Pool.sequential) (model : Model.t) conditions ~window polygons =
  if conditions = [] then invalid_arg "Pvband.compute: no conditions";
  (* One independent simulation per condition; the band scan below
     walks the rasters in condition order, so the result is identical
     for any worker count. *)
  let sim c =
    (Aerial.simulate model c ~window polygons,
     Model.printed_threshold model c)
  in
  let rasters = Exec.Pool.map_list ~label:"pvband.conditions" pool sim conditions in
  let first, _ = List.hd rasters in
  let step = Raster.step first in
  let lx = float_of_int window.G.Rect.lx and hx = float_of_int window.G.Rect.hx in
  let ly = float_of_int window.G.Rect.ly and hy = float_of_int window.G.Rect.hy in
  let inner = ref 0.0 and outer = ref 0.0 in
  for iy = 0 to Raster.ny first - 1 do
    for ix = 0 to Raster.nx first - 1 do
      let x = Raster.x_of_ix first ix and y = Raster.y_of_iy first iy in
      if x >= lx && x <= hx && y >= ly && y <= hy then begin
        let printed (r, th) = Raster.get r ix iy >= th in
        let all = List.for_all printed rasters in
        let any = List.exists printed rasters in
        let px = step *. step in
        if all then inner := !inner +. px;
        if any then outer := !outer +. px
      end
    done
  done;
  {
    inner_area = !inner;
    outer_area = !outer;
    band_area = !outer -. !inner;
    conditions = List.length conditions;
  }

let band_ratio t ~drawn_area =
  if drawn_area <= 0.0 then invalid_arg "Pvband.band_ratio: empty drawn area";
  t.band_area /. drawn_area

let pp ppf t =
  Format.fprintf ppf "pvband: inner=%.0f outer=%.0f band=%.0f nm^2 (%d cond)"
    t.inner_area t.outer_area t.band_area t.conditions
