module G = Geometry

let header =
  "inst,tname,cell,kind,gate_lx,gate_ly,gate_hx,gate_hy,drawn_l,drawn_w,bent,dose,defocus,slices,printed,cds"

let kind_name = function Layout.Cell.Nmos -> "n" | Layout.Cell.Pmos -> "p"

let kind_of_name = function
  | "n" -> Layout.Cell.Nmos
  | "p" -> Layout.Cell.Pmos
  | s -> failwith ("bad device kind " ^ s)

let write ppf cds =
  Format.fprintf ppf "%s@." header;
  (* [%h] hex floats round-trip bit-for-bit through [float_of_string]. *)
  let hex = Printf.sprintf "%h" in
  List.iter
    (fun (cd : Gate_cd.t) ->
      let g = cd.Gate_cd.gate in
      let r = g.Layout.Chip.gate in
      Format.fprintf ppf "%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%b,%s,%s,%d,%b,%s@."
        g.Layout.Chip.inst g.Layout.Chip.tname g.Layout.Chip.cell_name
        (kind_name g.Layout.Chip.kind)
        r.G.Rect.lx r.G.Rect.ly r.G.Rect.hx r.G.Rect.hy g.Layout.Chip.drawn_l
        g.Layout.Chip.drawn_w g.Layout.Chip.bent
        (hex cd.Gate_cd.condition.Litho.Condition.dose)
        (hex cd.Gate_cd.condition.Litho.Condition.defocus)
        cd.Gate_cd.slices_requested cd.Gate_cd.printed
        (String.concat ";" (List.map hex cd.Gate_cd.cds)))
    cds

let parse_row ~src lineno line =
  match String.split_on_char ',' line with
  | [ inst; tname; cell_name; kind; lx; ly; hx; hy; drawn_l; drawn_w; bent; dose;
      defocus; slices; printed; cds ] -> (
      try
        let gate =
          {
            Layout.Chip.inst;
            cell_name;
            tname;
            kind = kind_of_name kind;
            gate =
              G.Rect.make ~lx:(int_of_string lx) ~ly:(int_of_string ly)
                ~hx:(int_of_string hx) ~hy:(int_of_string hy);
            drawn_l = int_of_string drawn_l;
            drawn_w = int_of_string drawn_w;
            bent = bool_of_string bent;
          }
        in
        {
          Gate_cd.gate;
          condition =
            Litho.Condition.make ~dose:(float_of_string dose)
              ~defocus:(float_of_string defocus);
          cds =
            (if cds = "" then []
             else List.map float_of_string (String.split_on_char ';' cds));
          slices_requested = int_of_string slices;
          printed = bool_of_string printed;
        }
      with e ->
        failwith
          (Printf.sprintf "%s, line %d: %s" src lineno (Printexc.to_string e)))
  | _ -> failwith (Printf.sprintf "%s, line %d: wrong field count" src lineno)

let read ?(src = "csv") text =
  match String.split_on_char '\n' text with
  | [] -> failwith (src ^ ": empty input")
  | hd :: rows ->
      if String.trim hd <> header then
        failwith (src ^ ": missing or wrong header");
      rows
      |> List.mapi (fun i row -> (i + 2, String.trim row))
      |> List.filter (fun (_, row) -> row <> "")
      |> List.map (fun (lineno, row) -> parse_row ~src lineno row)

let save_file path cds =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  (try write ppf cds with e -> close_out oc; raise e);
  Format.pp_print_flush ppf ();
  close_out oc

let load_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  read ~src:path text
