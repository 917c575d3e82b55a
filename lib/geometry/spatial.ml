type 'a entry = { rect : Rect.t; payload : 'a; id : int }

type 'a t = {
  bucket : int;
  table : (int * int, 'a entry list ref) Hashtbl.t;
  mutable count : int;
}

let create ~bucket =
  if bucket <= 0 then invalid_arg "Spatial.create: bucket must be positive";
  { bucket; table = Hashtbl.create 1024; count = 0 }

let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

let buckets_of t (r : Rect.t) =
  let bx0 = fdiv r.Rect.lx t.bucket and bx1 = fdiv r.Rect.hx t.bucket in
  let by0 = fdiv r.Rect.ly t.bucket and by1 = fdiv r.Rect.hy t.bucket in
  let acc = ref [] in
  for bx = bx0 to bx1 do
    for by = by0 to by1 do
      acc := (bx, by) :: !acc
    done
  done;
  !acc

let insert t rect payload =
  let e = { rect; payload; id = t.count } in
  t.count <- t.count + 1;
  let add key =
    match Hashtbl.find_opt t.table key with
    | Some l -> l := e :: !l
    | None -> Hashtbl.add t.table key (ref [ e ])
  in
  List.iter add (buckets_of t rect)

let length t = t.count

let query t window =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let visit key =
    match Hashtbl.find_opt t.table key with
    | None -> ()
    | Some l ->
        List.iter
          (fun e ->
            if (not (Hashtbl.mem seen e.id)) && Rect.touches e.rect window then begin
              Hashtbl.add seen e.id ();
              out := (e.rect, e.payload) :: !out
            end)
          !l
  in
  List.iter visit (buckets_of t window);
  !out

let nearby t r ~halo = query t (Rect.inflate r halo)
