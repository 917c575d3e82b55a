type entry = {
  gate : Layout.Chip.gate_ref;
  l_on : float;
  l_off : float;
  printed : bool;
}

type t = (string, entry) Hashtbl.t

let empty () : t = Hashtbl.create 64

let size = Hashtbl.length

let m_entries = Obs.Metrics.counter "annotate.entries"

let m_unprinted = Obs.Metrics.counter "annotate.unprinted"

let build ~nmos ~pmos gate_cds : t =
  Obs.Span.with_ ~name:"annotate.build"
    ~attrs:(fun () -> [ ("records", string_of_int (List.length gate_cds)) ])
  @@ fun () ->
  let table = Hashtbl.create (List.length gate_cds) in
  List.iter
    (fun (cd : Gate_cd.t) ->
      let g = cd.Gate_cd.gate in
      let params =
        match g.Layout.Chip.kind with
        | Layout.Cell.Nmos -> nmos
        | Layout.Cell.Pmos -> pmos
      in
      let entry =
        match Gate_cd.profile cd with
        | Some profile when cd.Gate_cd.printed ->
            let red = Device.Leff.reduce params profile in
            { gate = g; l_on = red.Device.Leff.l_on; l_off = red.Device.Leff.l_off; printed = true }
        | Some _ | None ->
            {
              gate = g;
              l_on = float_of_int g.Layout.Chip.drawn_l;
              l_off = float_of_int g.Layout.Chip.drawn_l;
              printed = false;
            }
      in
      Obs.Metrics.incr m_entries;
      if not entry.printed then Obs.Metrics.incr m_unprinted;
      Hashtbl.replace table (Layout.Chip.gate_key g) entry)
    gate_cds;
  table

let drawn chip : t =
  let table = Hashtbl.create 256 in
  List.iter
    (fun (g : Layout.Chip.gate_ref) ->
      let l = float_of_int g.Layout.Chip.drawn_l in
      Hashtbl.replace table (Layout.Chip.gate_key g)
        { gate = g; l_on = l; l_off = l; printed = true })
    (Layout.Chip.gates chip);
  table

let find t key = Hashtbl.find_opt t key

let outliers t ~threshold =
  Hashtbl.fold
    (fun _ e acc ->
      if Float.abs (e.l_on -. float_of_int e.gate.Layout.Chip.drawn_l) >= threshold then
        e :: acc
      else acc)
    t []

let iter t f = Hashtbl.iter f t

let fold t ~init ~f = Hashtbl.fold f t init
