let m_hits = Obs.Metrics.counter "litho.cache.hits"

let m_misses = Obs.Metrics.counter "litho.cache.misses"

let m_evictions = Obs.Metrics.counter "litho.cache.evictions"

let m_bytes = Obs.Metrics.gauge "litho.cache.bytes"

type entry = { raster : Raster.t; size : int; mutable last_use : int }

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  budget : int;
  mutable used : int;
  mutable tick : int;  (** LRU clock: bumped on every find/store *)
}

let create ?(max_bytes = 256 * 1024 * 1024) () =
  if max_bytes <= 0 then invalid_arg "Tile_cache.create: max_bytes must be positive";
  { lock = Mutex.create (); table = Hashtbl.create 64; budget = max_bytes;
    used = 0; tick = 0 }

let global = create ()

(* The bytes gauge tracks the global cache only; short-lived test
   caches must not fight over one process-wide instrument. *)
let publish_bytes t = if t == global then Obs.Metrics.set_gauge m_bytes (float_of_int t.used)

let entry_size key raster =
  (* Dominated by the pixel array (8 bytes per float); the key and
     boxing overhead are charged approximately. *)
  (8 * Raster.nx raster * Raster.ny raster) + String.length key + 64

let find t ~origin key =
  let stored =
    Mutex.protect t.lock @@ fun () ->
    match Hashtbl.find_opt t.table key with
    | Some e ->
        t.tick <- t.tick + 1;
        e.last_use <- t.tick;
        Obs.Metrics.incr m_hits;
        Some e.raster
    | None ->
        Obs.Metrics.incr m_misses;
        None
  in
  (* A stored raster is never mutated (eviction only drops the
     reference), so a hit shares its pixels with the entry. *)
  Option.map (fun raster -> Raster.relocate raster ~origin) stored

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.last_use <= e.last_use -> acc
        | _ -> Some (key, e))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, e) ->
      Hashtbl.remove t.table key;
      t.used <- t.used - e.size;
      Obs.Metrics.incr m_evictions

let store t key raster =
  let size = entry_size key raster in
  if size <= t.budget then begin
    (* A raster that loses a concurrent race for the same key is
       simply not stored. *)
    Mutex.protect t.lock @@ fun () ->
    if not (Hashtbl.mem t.table key) then begin
      t.tick <- t.tick + 1;
      Hashtbl.add t.table key { raster; size; last_use = t.tick };
      t.used <- t.used + size;
      (* The newest entry carries the highest tick, so the loop never
         evicts what it just inserted while anything older remains. *)
      while t.used > t.budget do
        evict_lru t
      done;
      publish_bytes t
    end
  end

let clear t =
  Mutex.protect t.lock @@ fun () ->
  Hashtbl.reset t.table;
  t.used <- 0;
  publish_bytes t

let bytes t = Mutex.protect t.lock (fun () -> t.used)

let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

let max_bytes t = t.budget
