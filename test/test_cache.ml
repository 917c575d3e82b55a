(* The litho tile cache's one hard promise: a hit is bit-identical to
   the simulation it replaces.  These tests exercise that promise at
   every consumer (Aerial.simulate per tile, Pvband.compute, Flow.run),
   the byte-budget eviction and the observability counters, and check
   that simulations into caller-owned buffers (model OPC's) bypass the
   cache. *)

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

let test_tile_windows_identical () =
  let chip = Lazy.force small_chip in
  let source w = Layout.Chip.shapes_in chip Layout.Layer.Poly w in
  let sim m =
    List.map
      (fun window ->
        Litho.Aerial.simulate m Litho.Condition.nominal ~window
          (source (G.Rect.inflate window m.Litho.Model.halo)))
      tile_windows
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

(* Entries are shared, not copied: [store] keeps its argument, a hit
   hands back the stored pixel array itself, and relocating a hit
   re-homes only that hit. *)
let test_hit_shares_stored_raster () =
  let c = Litho.Tile_cache.create ~max_bytes:10_000 () in
  let stored = raster_of_bytes 80 in
  Litho.Tile_cache.store c "k" stored;
  let data = Litho.Raster.unsafe_data in
  let at = G.Point.make 500 700 in
  match
    ( Litho.Tile_cache.find c ~origin:at "k",
      Litho.Tile_cache.find c ~origin:G.Point.origin "k" )
  with
  | Some moved, Some home ->
      checkb "store keeps its argument, a hit shares its pixels" true
        (data moved == data stored);
      checkb "every hit shares the same pixels" true (data home == data stored);
      checkb "hit relocated to the caller's origin" true
        (G.Point.equal (Litho.Raster.origin moved) at);
      checkb "relocating a hit leaves the stored origin alone" true
        (G.Point.equal (Litho.Raster.origin stored) G.Point.origin
        && G.Point.equal (Litho.Raster.origin home) G.Point.origin)
  | _ -> Alcotest.fail "miss"

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

let lookups () = (counter_value "litho.cache.hits", counter_value "litho.cache.misses")

(* A simulation into caller-owned buffers neither looks up nor stores:
   the next simulation into the same buffers overwrites its image. *)
let test_into_bypasses_cache () =
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
  let before = lookups () in
  let first = sim ~into:b m shapes in
  checkb "simulation into buffers = fresh simulation" true (data first = fresh);
  (* Scribble over the intensity so a repeat must rewrite every pixel. *)
  Litho.Raster.fill first 7.0;
  checkb "repeat = fresh simulation" true (data (sim ~into:b m shapes) = fresh);
  (* Reused buffers start from a clean mask. *)
  checkb "other content = fresh simulation" true (data (sim ~into:b m other) = fresh_other);
  checkb "no hit or miss counted" true (lookups () = before);
  checki "nothing stored" 0 (Litho.Tile_cache.entries Litho.Tile_cache.global);
  Alcotest.check_raises "buffers of another window"
    (Invalid_argument "Aerial.simulate: buffers made for another window") (fun () ->
      ignore
        (Litho.Aerial.simulate ~into:b m Litho.Condition.nominal
           ~window:(G.Rect.translate window (G.Point.make 5 0))
           shapes))

(* Model OPC simulates only into its sim tiles' buffers, so a
   correction with the cache on neither consults nor fills it. *)
let test_model_opc_stores_nothing () =
  let targets =
    List.map
      (fun (x, h) -> G.Polygon.of_rect (G.Rect.make ~lx:x ~ly:0 ~hx:(x + 90) ~hy:h))
      [ (0, 1400); (400, 900); (800, 1300) ]
  in
  let config =
    { (Opc.Model_opc.default_config tech) with Opc.Model_opc.iterations = 3; sim_tile = 700 }
  in
  with_cache true @@ fun m ->
  let before = lookups () and tiles0 = counter_value "opc.dirty_tiles" in
  ignore (Opc.Model_opc.correct m config ~targets ~context:[]);
  checkb "sim tiles simulated" true (counter_value "opc.dirty_tiles" > tiles0);
  checkb "no hit or miss counted" true (lookups () = before);
  checki "nothing stored" 0 (Litho.Tile_cache.entries Litho.Tile_cache.global)

let () =
  Alcotest.run "tile_cache"
    [
      ( "identity",
        [
          Alcotest.test_case "tile windows" `Slow test_tile_windows_identical;
          Alcotest.test_case "pvband" `Slow test_pvband_identical;
          Alcotest.test_case "flow" `Slow test_flow_identical;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "byte budget" `Quick test_eviction_budget;
          Alcotest.test_case "oversized" `Quick test_oversized_entry_not_stored;
          Alcotest.test_case "hit shares the stored raster" `Quick
            test_hit_shares_stored_raster;
        ] );
      ( "metrics",
        [ Alcotest.test_case "monotone + hit" `Slow test_metrics_monotone_and_hit ] );
      ( "buffers",
        [
          Alcotest.test_case "into bypasses the cache" `Slow test_into_bypasses_cache;
          Alcotest.test_case "model OPC stores nothing" `Slow test_model_opc_stores_nothing;
        ] );
    ]
