module G = Geometry

type t = {
  index : int;
  count : int;
  x_lo : int;
  x_hi : int;
  gates : Layout.Chip.gate_ref list;
  halo_gates : int;
}

(* Ownership anchor of a gate site: the left edge of its extraction
   bucket.  Constant across all gates of a bucket, so a strip owns
   whole buckets and extraction order inside a shard matches the
   unsharded order restricted to it. *)
let gate_anchor ~tile g =
  let kx, _ = Cdex.Extract.bucket_key ~tile g in
  kx * tile

let owns_x s x = s.x_lo <= x && x < s.x_hi

let plan ~tile ~halo ~count chip =
  let count = max 1 count in
  let gates = Layout.Chip.gates chip in
  match Layout.Chip.die chip with
  | None ->
      [ { index = 0; count = 1; x_lo = min_int; x_hi = max_int; gates; halo_gates = 0 } ]
  | Some die ->
      let w = G.Rect.width die in
      (* Cut i of the strip partition; the outer cuts are open so every
         anchor — including those of shapes poking past the die bbox —
         has exactly one owner. *)
      let cut i =
        if i <= 0 then min_int
        else if i >= count then max_int
        else die.G.Rect.lx + (i * w / count)
      in
      let shard index =
        let s =
          {
            index;
            count;
            x_lo = cut index;
            x_hi = cut (index + 1);
            gates = [];
            halo_gates = 0;
          }
        in
        let owned =
          List.filter (fun g -> owns_x s (gate_anchor ~tile g)) gates
        in
        let halo_gates =
          match owned with
          | _ when count = 1 -> 0
          | [] -> 0
          | _ ->
              let reach =
                G.Rect.inflate
                  (G.Rect.hull_of_list
                     (List.map (fun (g : Layout.Chip.gate_ref) -> g.Layout.Chip.gate) owned))
                  halo
              in
              List.length
                (List.filter
                   (fun (g : Layout.Chip.gate_ref) ->
                     (not (owns_x s (gate_anchor ~tile g)))
                     && G.Rect.touches reach g.Layout.Chip.gate)
                   gates)
        in
        { s with gates = owned; halo_gates }
      in
      List.init count shard

let split_tiles s ts = List.filter (fun (t : G.Rect.t) -> owns_x s t.G.Rect.lx) ts

let pp ppf s =
  let bound v = if v = min_int || v = max_int then "*" else string_of_int v in
  Format.fprintf ppf "shard %d/%d x[%s,%s): %d gates (+%d halo)" (s.index + 1)
    s.count (bound s.x_lo) (bound s.x_hi) (List.length s.gates) s.halo_gates
