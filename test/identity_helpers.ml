(* Byte-identity test kit shared by test_flow, test_serve and
   test_ssta: one reduced flow config cheap enough to run dozens of
   times, exact renderings of a run and of an ssta view, and the
   sequential-baseline digest comparison every scaling feature
   (domains, cache, checkpoint) is measured against. *)

module F = Timing_opc.Flow

(* tile=1500 splits the c17 die into several correction tiles and
   extraction buckets, so worker domains have tasks to share, on a
   netlist small enough to run dozens of times. *)
let base_config ?(tile = 1500) ?(iterations = 2) ?(slices = 3) ?(domains = 1) () =
  let c = F.default_config () in
  {
    c with
    F.opc_config = { c.F.opc_config with Opc.Model_opc.iterations };
    slices;
    tile;
    domains;
    checkpoint = None;
  }

(* The ssta sweeps re-extract over a process window, so they keep the
   default tile and trade slightly richer OPC for fewer repetitions. *)
let cheap_config () =
  let c = F.default_config () in
  {
    c with
    F.opc_config = { c.F.opc_config with Opc.Model_opc.iterations = 4 };
    slices = 5;
  }

(* Exactly the bytes the identity contract covers: exact CSV records,
   OPC stats and both STA summaries. *)
let render_run (r : F.run) =
  Format.asprintf "%a@.%a@.%a@.%a@."
    Cdex.Csv.write
    r.F.cds Opc.Model_opc.pp_stats r.F.opc_stats Sta.Timing.pp_summary
    r.F.drawn_sta Sta.Timing.pp_summary r.F.post_opc_sta

let render_ssta (v : F.ssta_view) =
  Format.asprintf "%a@.%a@.%a" Sta.Ssta.pp_fit v.F.fit Sta.Ssta.pp_summary
    v.F.ssta
    (Format.pp_print_list Sta.Ssta.pp_endpoint)
    v.F.ssta.Sta.Ssta.endpoints

let digest s = Digest.to_hex (Digest.string s)

let run_digest r = digest (render_run r)

let netlist_of = function
  | 0 -> Circuit.Generator.c17 ()
  | 1 -> Circuit.Generator.inv_chain 5
  | n ->
      Circuit.Generator.random_logic
        (Stats.Rng.create (1000 + n))
        ~levels:3 ~width:3

(* Sequential baselines, one flow run per (netlist, tile). *)
let baselines : (int * int, string * Geometry.Polygon.t list) Hashtbl.t =
  Hashtbl.create 8

let baseline ~tile nl_idx =
  match Hashtbl.find_opt baselines (nl_idx, tile) with
  | Some b -> b
  | None ->
      let r = F.run (base_config ~tile ()) (netlist_of nl_idx) in
      let b = (render_run r, Opc.Mask.polygons r.F.mask) in
      Hashtbl.add baselines (nl_idx, tile) b;
      b

let check_identical ~tile ~what nl_idx (r : F.run) =
  let base_render, base_mask = baseline ~tile nl_idx in
  Alcotest.(check bool)
    (what ^ ": records/stats/sta identical")
    true
    (render_run r = base_render);
  Alcotest.(check bool)
    (what ^ ": mask identical")
    true
    (Opc.Mask.polygons r.F.mask = base_mask)
