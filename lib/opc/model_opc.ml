module G = Geometry

type config = {
  iterations : int;
  damping : float;
  max_len : int;
  line_end_max : int;
  max_displacement : int;
  tolerance : float;
  search : float;
  mask_grid : int;
  min_mask_space : int;
  sim_tile : int;
}

let default_config (tech : Layout.Tech.t) =
  {
    iterations = 8;
    damping = 0.6;
    max_len = 160;
    line_end_max = tech.Layout.Tech.poly_min_width + 30;
    max_displacement = 45;
    tolerance = 0.4;
    search = 120.0;
    mask_grid = 1;
    min_mask_space = 140;
    sim_tile = 3000;
  }

type stats = {
  iterations_run : int;
  max_epe : float;
  rms_epe : float;
  sites : int;
  unresolved : int;
}

let clamp v lo hi = max lo (min hi v)

let m_iterations = Obs.Metrics.counter "opc.iterations"

let m_sites = Obs.Metrics.counter "opc.epe_sites"

let m_unresolved = Obs.Metrics.counter "opc.unresolved"

(* Per-call max |EPE| in nm; edges span "converged" to "hopeless". *)
let m_epe =
  Obs.Metrics.histogram
    ~edges:[| 0.1; 0.2; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0 |]
    "opc.max_epe_nm"

(* One count per sim-tile simulation.  The benchmark's per-layer table
   reads it under this name. *)
let m_sim_tiles = Obs.Metrics.counter "opc.dirty_tiles"

let correct_untraced ~pool (model : Litho.Model.t) config ~targets ~context =
  match targets with
  | [] ->
      ([], { iterations_run = 0; max_epe = 0.0; rms_epe = 0.0; sites = 0; unresolved = 0 })
  | _ ->
      let fragmented =
        List.map
          (fun p ->
            ( p,
              Fragment.fragment_polygon p ~max_len:config.max_len
                ~line_end_max:config.line_end_max ))
          targets
      in
      (* Mask-rule constraint: a fragment may move outward only until
         the mask gap to the nearest neighbour shape shrinks to
         [min_mask_space] (both sides may move, hence the /2). *)
      let all_shapes = targets @ context in
      let neighbours _window = all_shapes in
      let caps =
        List.concat_map
          (fun (p, f) ->
            List.map
              (fun (frag : Fragment.t) ->
                let space =
                  Rule_opc.space_to_neighbour ~probe:(config.max_displacement * 8)
                    ~neighbours frag ~self:p
                in
                let cap = min (max 0 ((space - config.min_mask_space) / 2)) config.max_displacement in
                (* Keep the cap on the mask grid so snapping never
                   rounds a clamped move back over it. *)
                let g = max 1 config.mask_grid in
                (frag, cap - (cap mod g)))
              f.Fragment.fragments)
          fragmented
      in
      (* Fragments are mutable records: key by physical identity. *)
      let outward_cap frag =
        match List.assq_opt frag caps with
        | Some c -> c
        | None -> config.max_displacement
      in
      (* Edges covered by an overlapping shape (e.g. a stripe edge under
         a strap) are interior to the drawn union: they are not real
         print targets and must be neither measured nor moved. *)
      let covered =
        List.concat_map
          (fun (p, f) ->
            List.filter_map
              (fun (frag : Fragment.t) ->
                let probe =
                  G.Point.add frag.Fragment.control
                    (G.Point.scale 3 frag.Fragment.normal)
                in
                let inside_other =
                  List.exists
                    (fun q -> q != p && G.Polygon.contains_point q probe)
                    all_shapes
                in
                if inside_other then Some frag else None)
              f.Fragment.fragments)
          fragmented
      in
      let is_covered frag = List.memq frag covered in
      let fragmented = List.map snd fragmented in
      let window =
        G.Rect.hull_of_list (List.map G.Polygon.bbox targets)
      in
      let threshold = model.Litho.Model.threshold in
      (* The correction window is split into a fixed grid of [sim_tile]
         tiles, each simulated independently over its window inflated
         by the model halo; every pass re-simulates every tile. *)
      let tw, th =
        if config.sim_tile <= 0 then
          (max 1 (G.Rect.width window), max 1 (G.Rect.height window))
        else (config.sim_tile, config.sim_tile)
      in
      let ntx = max 1 ((G.Rect.width window + tw - 1) / tw) in
      let nty = max 1 ((G.Rect.height window + th - 1) / th) in
      let tiles =
        Array.init (ntx * nty) (fun idx ->
            let ix = idx mod ntx and iy = idx / ntx in
            G.Rect.make
              ~lx:(window.G.Rect.lx + (ix * tw))
              ~ly:(window.G.Rect.ly + (iy * th))
              ~hx:(min window.G.Rect.hx (window.G.Rect.lx + ((ix + 1) * tw)))
              ~hy:(min window.G.Rect.hy (window.G.Rect.ly + ((iy + 1) * th))))
      in
      (* Control sites sit on drawn edges inside the target hull, so the
         clamp only absorbs sites on the window's high boundary. *)
      let tile_of (c : G.Point.t) =
        let ix = min (ntx - 1) (max 0 ((c.G.Point.x - window.G.Rect.lx) / tw)) in
        let iy = min (nty - 1) (max 0 ((c.G.Point.y - window.G.Rect.ly) / th)) in
        (iy * ntx) + ix
      in
      (* Each sim tile owns its rasters for the whole correction: every
         pass simulates into them, so a pass allocates no image. *)
      let buffers =
        Array.map (fun w -> Litho.Aerial.buffers model ~window:w) tiles
      in
      let measure_pass () =
        let mask_polys = List.map Fragment.to_mask fragmented @ context in
        Obs.Metrics.add m_sim_tiles (Array.length tiles);
        (* Each task writes its own tile's buffers, so the images do not
           depend on the worker count. *)
        let simulate idx =
          Litho.Aerial.simulate ~into:buffers.(idx) model Litho.Condition.nominal
            ~window:tiles.(idx) mask_polys
        in
        let rasters =
          Exec.Pool.init ~label:"opc.tiles" pool (Array.length tiles) simulate
        in
        let intensity_at c = rasters.(tile_of c) in
        (* EPE of the printed contour against the *drawn* control site,
           sampled from the stitched tile set. *)
        List.concat_map
          (fun f ->
            List.filter_map
              (fun (frag : Fragment.t) ->
                if is_covered frag then None
                else
                  let c = frag.Fragment.control and n = frag.Fragment.normal in
                  Some
                    ( frag,
                      Litho.Metrology.epe (intensity_at c) ~threshold
                        ~x:(float_of_int c.G.Point.x) ~y:(float_of_int c.G.Point.y)
                        ~nx:(float_of_int n.G.Point.x) ~ny:(float_of_int n.G.Point.y)
                        ~search:config.search ))
              f.Fragment.fragments)
          fragmented
      in
      let all_fragments = List.concat_map (fun f -> f.Fragment.fragments) fragmented in
      let snapshot () = List.map (fun (f : Fragment.t) -> f.Fragment.displacement) all_fragments in
      let restore s = List.iter2 (fun (f : Fragment.t) d -> f.Fragment.displacement <- d) all_fragments s in
      let rms_of epes =
        let resolved = List.filter_map snd epes in
        match resolved with
        | [] -> infinity
        | _ ->
            let ss = List.fold_left (fun acc e -> acc +. (e *. e)) 0.0 resolved in
            sqrt (ss /. float_of_int (List.length resolved))
      in
      (* The mask grid plus MEEF > 1 can produce a limit cycle between
         two displacement states; keep the best-RMS state seen. *)
      let best = ref (snapshot ()) in
      let best_rms = ref infinity in
      let best_epes = ref [] in
      let final = ref [] in
      (* Each pass's EPEs are kept with the state they measured, so the
         best state's residual needs no second simulation. *)
      let measure () =
        let epes = measure_pass () in
        final := epes;
        let rms = rms_of epes in
        if rms < !best_rms then begin
          best_rms := rms;
          best := snapshot ();
          best_epes := epes
        end;
        epes
      in
      let iterations_run = ref 0 in
      (try
         for it = 1 to config.iterations do
           iterations_run := it;
           let epes = measure () in
           let worst =
             List.fold_left
               (fun acc (_, e) -> match e with Some e -> Float.max acc (Float.abs e) | None -> acc)
               0.0 epes
           in
           if worst < config.tolerance then raise Exit;
           List.iter
             (fun ((frag : Fragment.t), e) ->
               let move =
                 match e with
                 | Some e ->
                     (* Printed edge beyond the target: retract the mask
                        edge; short of target: push it out.  Guarantee a
                        one-grid step whenever the error exceeds the
                        tolerance, so damping x rounding cannot stall. *)
                     let m = int_of_float (Float.round (-.config.damping *. e)) in
                     if m = 0 && Float.abs e > config.tolerance then
                       if e > 0.0 then -1 else 1
                     else m
                 | None ->
                     (* Feature missing at this site (severe pullback):
                        push outward to recover it. *)
                     4
               in
               let snap v =
                 (* Mask-grid quantisation: displacements land on the
                    manufacturing grid, a floor on achievable EPE. *)
                 let g = max 1 config.mask_grid in
                 let q = (v + if v >= 0 then g / 2 else -(g / 2)) / g in
                 q * g
               in
               frag.Fragment.displacement <-
                 snap
                   (clamp (frag.Fragment.displacement + move) (-config.max_displacement)
                      (outward_cap frag)))
             epes
         done;
         (* Measure the residual after the last move. *)
         ignore (measure ())
       with Exit ->
         best := snapshot ();
         best_epes := !final);
      (* Ship the best state seen, and report its residual. *)
      restore !best;
      let epes = if !best_rms = infinity then !final else !best_epes in
      let resolved = List.filter_map (fun (_, e) -> e) epes in
      let unresolved = List.length epes - List.length resolved in
      let max_epe = List.fold_left (fun acc e -> Float.max acc (Float.abs e)) 0.0 resolved in
      let rms_epe =
        match resolved with
        | [] -> 0.0
        | _ ->
            let ss = List.fold_left (fun acc e -> acc +. (e *. e)) 0.0 resolved in
            sqrt (ss /. float_of_int (List.length resolved))
      in
      ( List.map Fragment.to_mask fragmented,
        {
          iterations_run = !iterations_run;
          max_epe;
          rms_epe;
          sites = List.length epes;
          unresolved;
        } )

let correct ?(pool = Exec.Pool.sequential) model config ~targets ~context =
  Obs.Span.with_ ~name:"opc.correct"
    ~attrs:(fun () -> [ ("targets", string_of_int (List.length targets)) ])
  @@ fun () ->
  let mask, stats = correct_untraced ~pool model config ~targets ~context in
  Obs.Metrics.add m_iterations stats.iterations_run;
  Obs.Metrics.add m_sites stats.sites;
  Obs.Metrics.add m_unresolved stats.unresolved;
  if stats.sites > 0 then Obs.Metrics.observe m_epe stats.max_epe;
  (mask, stats)

let merge_stats = function
  | [] -> { iterations_run = 0; max_epe = 0.0; rms_epe = 0.0; sites = 0; unresolved = 0 }
  | stats ->
      let sites = List.fold_left (fun acc s -> acc + s.sites) 0 stats in
      let unresolved = List.fold_left (fun acc s -> acc + s.unresolved) 0 stats in
      let max_epe = List.fold_left (fun acc s -> Float.max acc s.max_epe) 0.0 stats in
      let iterations_run = List.fold_left (fun acc s -> max acc s.iterations_run) 0 stats in
      let ss =
        List.fold_left
          (fun acc s -> acc +. (s.rms_epe *. s.rms_epe *. float_of_int s.sites))
          0.0 stats
      in
      let rms_epe = if sites = 0 then 0.0 else sqrt (ss /. float_of_int sites) in
      { iterations_run; max_epe; rms_epe; sites; unresolved }

let pp_stats ppf s =
  Format.fprintf ppf
    "opc: %d iters, %d sites (%d unresolved), max|EPE|=%.2fnm rms=%.2fnm"
    s.iterations_run s.sites s.unresolved s.max_epe s.rms_epe
