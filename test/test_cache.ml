(* The litho tile cache's one hard promise: a hit is bit-identical to
   the simulation it replaces.  These tests exercise that promise at
   every consumer (Aerial.simulate_tiles, Pvband.compute, Flow.run),
   the byte-budget eviction, the incremental OPC dirty-tile path, and
   the observability counters. *)

module G = Geometry

let tech = Layout.Tech.node90

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let model = lazy (Litho.Aerial.calibrate (Litho.Model.create ()) tech)

let small_chip =
  lazy
    (let rng = Stats.Rng.create 7 in
     Layout.Placer.random_block tech Layout.Placer.default_config rng ~n:6)

(* [f] gets the calibrated model with its tile cache on or off; on
   starts from an empty global cache. *)
let with_cache enabled f =
  if enabled then Litho.Tile_cache.clear Litho.Tile_cache.global;
  f { (Lazy.force model) with Litho.Model.cache = enabled }

let rasters_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> Litho.Raster.unsafe_data ra = Litho.Raster.unsafe_data rb)
       a b

(* ---- bit-identity: cached vs uncached ---- *)

let tile_windows =
  List.init 4 (fun i ->
      let x = i mod 2 * 1200 and y = i / 2 * 1200 in
      G.Rect.make ~lx:x ~ly:y ~hx:(x + 1200) ~hy:(y + 1200))

let test_simulate_tiles_identical () =
  let chip = Lazy.force small_chip in
  let source w = Layout.Chip.shapes_in chip Layout.Layer.Poly w in
  let sim m =
    Litho.Aerial.simulate_tiles m Litho.Condition.nominal ~windows:tile_windows source
  in
  let off = with_cache false sim in
  let cold = with_cache true sim in
  (* Second cached call on the same cold-started cache: all hits. *)
  let warm =
    with_cache true (fun m ->
        ignore (sim m);
        sim m)
  in
  checkb "cold cached run = uncached" true (rasters_equal off cold);
  checkb "warm cached run = uncached" true (rasters_equal off warm)

let test_pvband_identical () =
  let m = Lazy.force model in
  let chip = Lazy.force small_chip in
  let window = G.Rect.make ~lx:0 ~ly:0 ~hx:1500 ~hy:1500 in
  let polygons =
    Layout.Chip.shapes_in chip Layout.Layer.Poly
      (G.Rect.inflate window m.Litho.Model.halo)
  in
  let conditions =
    Litho.Condition.corners ~dose_range:(0.95, 1.05) ~defocus_range:(0.0, 120.0)
  in
  let compute m = Litho.Pvband.compute m conditions ~window polygons in
  let off = with_cache false compute in
  let on =
    with_cache true (fun m ->
        ignore (compute m);
        compute m)
  in
  checkb "pvband identical cached vs not" true (off = on)

let cheap_config ~cache =
  let c = Timing_opc.Flow.default_config () in
  {
    c with
    Timing_opc.Flow.opc_config =
      { c.Timing_opc.Flow.opc_config with Opc.Model_opc.iterations = 4 };
    slices = 5;
    cache;
  }

let test_flow_identical () =
  let netlist = Circuit.Generator.c17 () in
  Litho.Tile_cache.clear Litho.Tile_cache.global;
  let off = Timing_opc.Flow.run (cheap_config ~cache:false) netlist in
  let on = Timing_opc.Flow.run (cheap_config ~cache:true) netlist in
  checkb "cds identical" true (off.Timing_opc.Flow.cds = on.Timing_opc.Flow.cds);
  checkb "opc stats identical" true
    (off.Timing_opc.Flow.opc_stats = on.Timing_opc.Flow.opc_stats);
  Alcotest.(check (float 0.0))
    "wns identical" off.Timing_opc.Flow.post_opc_sta.Sta.Timing.wns
    on.Timing_opc.Flow.post_opc_sta.Sta.Timing.wns

(* ---- eviction ---- *)

let raster_of_bytes n =
  (* n data bytes = n/8 pixels. *)
  Litho.Raster.create ~origin:G.Point.origin ~step:5.0 ~nx:(n / 8) ~ny:1

let test_eviction_budget () =
  (* Budget fits two of the three entries; each entry is 800 data
     bytes + key + 64 overhead. *)
  let c = Litho.Tile_cache.create ~max_bytes:2000 () in
  let mark v =
    let r = raster_of_bytes 800 in
    Litho.Raster.set r 0 0 v;
    r
  in
  Litho.Tile_cache.store c "a" (mark 1.0);
  Litho.Tile_cache.store c "b" (mark 2.0);
  checki "two entries fit" 2 (Litho.Tile_cache.entries c);
  (* Touch "b" so "a" is the LRU victim. *)
  ignore (Litho.Tile_cache.find c ~origin:G.Point.origin "b");
  Litho.Tile_cache.store c "c" (mark 3.0);
  checki "eviction keeps entry count at budget" 2 (Litho.Tile_cache.entries c);
  checkb "bytes within budget" true
    (Litho.Tile_cache.bytes c <= Litho.Tile_cache.max_bytes c);
  checkb "LRU entry evicted" true
    (Litho.Tile_cache.find c ~origin:G.Point.origin "a" = None);
  (* Surviving entries still serve uncorrupted hits. *)
  (match Litho.Tile_cache.find c ~origin:G.Point.origin "b" with
  | None -> Alcotest.fail "touched entry evicted"
  | Some r -> Alcotest.(check (float 0.0)) "hit data intact" 2.0 (Litho.Raster.get r 0 0));
  match Litho.Tile_cache.find c ~origin:G.Point.origin "c" with
  | None -> Alcotest.fail "new entry missing"
  | Some r -> Alcotest.(check (float 0.0)) "new data intact" 3.0 (Litho.Raster.get r 0 0)

let test_oversized_entry_not_stored () =
  let c = Litho.Tile_cache.create ~max_bytes:500 () in
  Litho.Tile_cache.store c "big" (raster_of_bytes 800);
  checki "oversized entry refused" 0 (Litho.Tile_cache.entries c);
  checki "no bytes held" 0 (Litho.Tile_cache.bytes c)

let test_hit_is_a_copy () =
  let c = Litho.Tile_cache.create ~max_bytes:10_000 () in
  Litho.Tile_cache.store c "k" (raster_of_bytes 80);
  (match Litho.Tile_cache.find c ~origin:G.Point.origin "k" with
  | None -> Alcotest.fail "miss"
  | Some r -> Litho.Raster.set r 0 0 99.0);
  match Litho.Tile_cache.find c ~origin:G.Point.origin "k" with
  | None -> Alcotest.fail "miss"
  | Some r ->
      Alcotest.(check (float 0.0))
        "mutating a hit does not corrupt the cache" 0.0 (Litho.Raster.get r 0 0)

(* ---- incremental OPC: dirty-tile on/off identity ---- *)

let opc_config ~incremental =
  {
    (Opc.Model_opc.default_config tech) with
    Opc.Model_opc.iterations = 3;
    incremental;
    (* Small enough that a 3-line cluster spans several tiles, so the
       dirty/clean classification actually has work to do. *)
    sim_tile = 700;
  }

let arb_cluster =
  (* 1-3 vertical lines at random pitches/heights: enough variety to
     move different fragment subsets on different iterations. *)
  QCheck.make
    ~print:(fun ps ->
      String.concat ";" (List.map (Format.asprintf "%a" G.Polygon.pp) ps))
    QCheck.Gen.(
      let* n = int_range 1 3 in
      let* xs = list_repeat n (int_range 0 8) in
      let* hs = list_repeat n (int_range 4 14) in
      return
        (List.mapi
           (fun i (x, h) ->
             G.Polygon.of_rect
               (G.Rect.make ~lx:(i * 300 + x * 10) ~ly:0
                  ~hx:((i * 300) + (x * 10) + 90)
                  ~hy:(h * 100)))
           (List.combine xs hs)))

let prop_incremental_identical =
  QCheck.Test.make ~name:"incremental OPC = full re-simulation" ~count:8 arb_cluster
    (fun targets ->
      (* Cache off: the property must hold from the dirty-tile logic
         alone, not from cache hits hiding a stale raster. *)
      with_cache false @@ fun m ->
      let on, s_on =
        Opc.Model_opc.correct m (opc_config ~incremental:true) ~targets ~context:[]
      in
      let off, s_off =
        Opc.Model_opc.correct m (opc_config ~incremental:false) ~targets ~context:[]
      in
      List.for_all2 G.Polygon.equal on off && s_on = s_off)

(* ---- metrics ---- *)

let counter_value name =
  match List.assoc_opt name (Obs.Metrics.snapshot Obs.Metrics.global) with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

let test_metrics_monotone_and_hit () =
  let m = Lazy.force model in
  let chip = Lazy.force small_chip in
  (* Two identical cell windows at different offsets: the second must
     hit via the translation-invariant key even on a cold cache. *)
  let window = G.Rect.make ~lx:0 ~ly:0 ~hx:1000 ~hy:1000 in
  let shapes =
    Layout.Chip.shapes_in chip Layout.Layer.Poly
      (G.Rect.inflate window m.Litho.Model.halo)
  in
  let d = G.Point.make 5000 0 in
  let moved = List.map (fun p -> G.Polygon.translate p d) shapes in
  let window' = G.Rect.translate window d in
  with_cache true @@ fun m ->
  let h0 = counter_value "litho.cache.hits" in
  let m0 = counter_value "litho.cache.misses" in
  let a = Litho.Aerial.simulate m Litho.Condition.nominal ~window shapes in
  let h1 = counter_value "litho.cache.hits" in
  let m1 = counter_value "litho.cache.misses" in
  checkb "first simulation misses" true (m1 > m0);
  checki "no hit yet" h0 h1;
  let b = Litho.Aerial.simulate m Litho.Condition.nominal ~window:window' moved in
  let h2 = counter_value "litho.cache.hits" in
  let m2 = counter_value "litho.cache.misses" in
  checkb "translated repeat hits" true (h2 > h1);
  checki "no extra miss" m1 m2;
  checkb "cache holds bytes" true (Litho.Tile_cache.bytes Litho.Tile_cache.global > 0);
  checkb "hit equals translated simulation" true
    (Litho.Raster.unsafe_data a = Litho.Raster.unsafe_data b)

(* ---- caller-owned simulation buffers ---- *)

let test_buffers_identical () =
  let m = Lazy.force model in
  let chip = Lazy.force small_chip in
  let window = G.Rect.make ~lx:0 ~ly:0 ~hx:1000 ~hy:1000 in
  let shapes =
    Layout.Chip.shapes_in chip Layout.Layer.Poly
      (G.Rect.inflate window m.Litho.Model.halo)
  in
  let other = [ G.Polygon.of_rect (G.Rect.make ~lx:300 ~ly:100 ~hx:390 ~hy:900) ] in
  let sim ?into m polys = Litho.Aerial.simulate ?into m Litho.Condition.nominal ~window polys in
  let data = Litho.Raster.unsafe_data in
  let fresh = with_cache false (fun m -> data (sim m shapes)) in
  let fresh_other = with_cache false (fun m -> data (sim m other)) in
  let b = Litho.Aerial.buffers m ~window in
  with_cache true @@ fun m ->
  let h0 = counter_value "litho.cache.hits" in
  let miss = sim ~into:b m shapes in
  checki "first simulation into buffers misses" h0 (counter_value "litho.cache.hits");
  checkb "miss into buffers = fresh simulation" true (data miss = fresh);
  (* Scribble over the intensity so a hit must overwrite every pixel. *)
  Litho.Raster.fill miss 7.0;
  let hit = sim ~into:b m shapes in
  checkb "repeat hits" true (counter_value "litho.cache.hits" > h0);
  checkb "hit into buffers = fresh simulation" true (data hit = fresh);
  (* A miss on reused buffers starts from a clean mask. *)
  checkb "reused buffers = fresh simulation" true (data (sim ~into:b m other) = fresh_other);
  Alcotest.check_raises "buffers of another window"
    (Invalid_argument "Aerial.simulate: buffers made for another window") (fun () ->
      ignore
        (Litho.Aerial.simulate ~into:b m Litho.Condition.nominal
           ~window:(G.Rect.translate window (G.Point.make 5 0))
           shapes))

(* ---- engine key separation ---- *)

let test_engine_keys_disjoint () =
  let m = Lazy.force model in
  let chip = Lazy.force small_chip in
  let window = G.Rect.make ~lx:0 ~ly:0 ~hx:1000 ~hy:1000 in
  let shapes =
    Layout.Chip.shapes_in chip Layout.Layer.Poly
      (G.Rect.inflate window m.Litho.Model.halo)
  in
  with_cache true @@ fun m ->
  let sim engine = Litho.Aerial.simulate ~engine m Litho.Condition.nominal ~window shapes in
  let m0 = counter_value "litho.cache.misses" in
  let d = sim Litho.Aerial.Direct in
  let m1 = counter_value "litho.cache.misses" in
  checkb "direct cold miss" true (m1 > m0);
  (* A direct entry is warm; the FFT engine must still miss — the
     engines agree only within the tolerance contract, so one cache
     key must never serve both. *)
  let f = sim Litho.Aerial.Fft in
  let m2 = counter_value "litho.cache.misses" in
  checkb "fft misses past a warm direct entry" true (m2 > m1);
  let h0 = counter_value "litho.cache.hits" in
  let f' = sim Litho.Aerial.Fft in
  let h1 = counter_value "litho.cache.hits" in
  checkb "fft repeat hits its own entry" true (h1 > h0);
  checkb "fft hit returns the fft image" true
    (Litho.Raster.unsafe_data f = Litho.Raster.unsafe_data f');
  checkb "engines store different images" true
    (Litho.Raster.unsafe_data d <> Litho.Raster.unsafe_data f)

let () =
  Alcotest.run "tile_cache"
    [
      ( "identity",
        [
          Alcotest.test_case "simulate_tiles" `Slow test_simulate_tiles_identical;
          Alcotest.test_case "pvband" `Slow test_pvband_identical;
          Alcotest.test_case "flow" `Slow test_flow_identical;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "byte budget" `Quick test_eviction_budget;
          Alcotest.test_case "oversized" `Quick test_oversized_entry_not_stored;
          Alcotest.test_case "hit is a copy" `Quick test_hit_is_a_copy;
        ] );
      ( "incremental",
        [ QCheck_alcotest.to_alcotest prop_incremental_identical ] );
      ( "metrics",
        [ Alcotest.test_case "monotone + hit" `Slow test_metrics_monotone_and_hit ] );
      ( "engines",
        [ Alcotest.test_case "keys disjoint" `Slow test_engine_keys_disjoint ] );
      ( "buffers",
        [ Alcotest.test_case "miss and hit = fresh" `Slow test_buffers_identical ] );
    ]
