type event = {
  id : int;
  parent : int option;
  depth : int;
  name : string;
  attrs : (string * string) list;
  domain : int;
  start_s : float;
  wall_s : float;
  cpu_s : float;
  alloc_w : float;
}

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let next_id = Atomic.make 0

(* Guards the log, the sink and the epoch; spans finish on arbitrary
   domains. *)
let mutex = Mutex.create ()

let log : event list ref = ref []

let sink : out_channel option ref = ref None

let epoch = ref 0.0

(* Per-domain stack of open spans: (id, depth), innermost first. *)
let stack_key : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let close_sink_locked () =
  match !sink with
  | None -> ()
  | Some oc ->
      sink := None;
      close_out oc

let enable () =
  Mutex.lock mutex;
  log := [];
  Atomic.set next_id 0;
  epoch := Clock.wall ();
  Atomic.set enabled_flag true;
  Mutex.unlock mutex

let stream_to path =
  enable ();
  Mutex.lock mutex;
  close_sink_locked ();
  sink := Some (open_out path);
  Mutex.unlock mutex

let disable () =
  Atomic.set enabled_flag false;
  Mutex.lock mutex;
  close_sink_locked ();
  Mutex.unlock mutex

let json_of_event e : Json.t =
  Json.Obj
    [ ("type", Json.Str "span");
      ("id", Json.Num (float_of_int e.id));
      ("parent",
       match e.parent with None -> Json.Null | Some p -> Json.Num (float_of_int p));
      ("depth", Json.Num (float_of_int e.depth));
      ("name", Json.Str e.name);
      ("domain", Json.Num (float_of_int e.domain));
      ("start_s", Json.Num e.start_s);
      ("wall_s", Json.Num e.wall_s);
      ("cpu_s", Json.Num e.cpu_s);
      ("alloc_w", Json.Num e.alloc_w);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.attrs)) ]

let record e =
  Mutex.lock mutex;
  log := e :: !log;
  (match !sink with
  | None -> ()
  | Some oc ->
      output_string oc (Json.to_string (json_of_event e));
      output_char oc '\n');
  Mutex.unlock mutex

(* Words allocated so far on this domain.  Gc.minor_words and
   Gc.counters read the calling domain's own counters (Gc.quick_stat
   sums every domain's) and walk no heap.  The minor count comes from
   Gc.minor_words: OCaml 5.1's Gc.counters scales the words allocated
   since the last minor collection by 1/8. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let with_ ?attrs ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let outer = Domain.DLS.get stack_key in
    let parent, depth =
      match outer with [] -> (None, 0) | (p, d) :: _ -> (Some p, d + 1)
    in
    Domain.DLS.set stack_key ((id, depth) :: outer);
    let w0 = Clock.wall () and c0 = Clock.cpu () and a0 = allocated_words () in
    Fun.protect
      ~finally:(fun () ->
        let w1 = Clock.wall () and c1 = Clock.cpu () and a1 = allocated_words () in
        Domain.DLS.set stack_key outer;
        record
          {
            id;
            parent;
            depth;
            name;
            attrs = (match attrs with None -> [] | Some f -> f ());
            domain = (Domain.self () :> int);
            start_s = w0 -. !epoch;
            wall_s = w1 -. w0;
            cpu_s = c1 -. c0;
            alloc_w = Float.max 0.0 (a1 -. a0);
          })
      f
  end

let events () =
  Mutex.lock mutex;
  let evs = !log in
  Mutex.unlock mutex;
  List.rev evs

let pp_tree ppf evs =
  let by_parent = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let key = Option.value e.parent ~default:(-1) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_parent key) in
      Hashtbl.replace by_parent key (e :: cur))
    evs;
  let children key =
    Option.value ~default:[] (Hashtbl.find_opt by_parent key)
    |> List.sort (fun a b -> Int.compare a.id b.id)
  in
  let rec walk indent e =
    Format.fprintf ppf "@,%s%-*s wall=%.4fs cpu=%.4fs%s%s" indent
      (max 1 (32 - String.length indent))
      e.name e.wall_s e.cpu_s
      (if e.alloc_w > 0.0 then
         Printf.sprintf " alloc=%.1fMw" (e.alloc_w /. 1e6)
       else "")
      (match e.attrs with
      | [] -> ""
      | attrs ->
          " " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs));
    List.iter (walk (indent ^ "  ")) (children e.id)
  in
  Format.fprintf ppf "@[<v>trace (%d spans)" (List.length evs);
  List.iter (walk "  ") (children (-1));
  Format.fprintf ppf "@]"
