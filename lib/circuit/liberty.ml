let pp_axis ppf axis =
  Format.fprintf ppf "\"%s\""
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") axis)))

let pp_values ppf (m : float array array) =
  Format.fprintf ppf "values ( \\@.";
  Array.iteri
    (fun i row ->
      Format.fprintf ppf "          \"%s\"%s \\@."
        (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") row)))
        (if i = Array.length m - 1 then "" else ","))
    m;
  Format.fprintf ppf "        );"

let pp_table ppf kind (t : Nldm.table) values =
  Format.fprintf ppf
    "      %s (nldm_template) {@.        index_1 (%a);@.        index_2 (%a);@.        %a@.      }@."
    kind pp_axis t.Nldm.slew_axis pp_axis t.Nldm.load_axis pp_values values

let write ppf env (lib : Nldm.library) =
  let tech = env.Delay_model.tech in
  Format.fprintf ppf "library (post_opc_timing_%s) {@." tech.Layout.Tech.name;
  Format.fprintf ppf "  delay_model : table_lookup;@.";
  Format.fprintf ppf "  time_unit : \"1ps\";@.";
  Format.fprintf ppf "  capacitive_load_unit (1, ff);@.";
  Format.fprintf ppf "  voltage_unit : \"1V\";@.";
  Format.fprintf ppf "  nom_voltage : %.2f;@." env.Delay_model.nmos.Device.Mosfet.vdd;
  (match Hashtbl.length lib with
  | 0 -> ()
  | _ ->
      (* Template shared by all tables (all cells use the same axes). *)
      let any = List.hd Cell_lib.all in
      let t = Nldm.find lib any.Cell_lib.name in
      Format.fprintf ppf
        "  lu_table_template (nldm_template) {@.    variable_1 : input_net_transition;@.    variable_2 : total_output_net_capacitance;@.    index_1 (%a);@.    index_2 (%a);@.  }@."
        pp_axis t.Nldm.tbl.Nldm.slew_axis pp_axis t.Nldm.tbl.Nldm.load_axis);
  List.iter
    (fun (cell : Cell_lib.t) ->
      let t = Nldm.find lib cell.Cell_lib.name in
      let lay = Layout.Stdcell.find tech cell.Cell_lib.layout_cell in
      Format.fprintf ppf "  cell (%s) {@." cell.Cell_lib.name;
      Format.fprintf ppf "    area : %.4f;@."
        (float_of_int (lay.Layout.Cell.width * lay.Layout.Cell.height) /. 1.0e6);
      List.iter
        (fun pin ->
          Format.fprintf ppf
            "    pin (%s) {@.      direction : input;@.      capacitance : %.4f;@.    }@."
            pin t.Nldm.input_cap)
        cell.Cell_lib.inputs;
      Format.fprintf ppf "    pin (Y) {@.      direction : output;@.";
      List.iter
        (fun pin ->
          Format.fprintf ppf
            "      timing () {@.        related_pin : \"%s\";@.        timing_sense : negative_unate;@."
            pin;
          pp_table ppf "cell_rise" t.Nldm.tbl t.Nldm.tbl.Nldm.delay;
          pp_table ppf "rise_transition" t.Nldm.tbl t.Nldm.tbl.Nldm.slew_out;
          pp_table ppf "cell_fall" t.Nldm.tbl t.Nldm.tbl.Nldm.delay;
          pp_table ppf "fall_transition" t.Nldm.tbl t.Nldm.tbl.Nldm.slew_out;
          Format.fprintf ppf "      }@.")
        cell.Cell_lib.inputs;
      Format.fprintf ppf "    }@.  }@.")
    Cell_lib.all;
  Format.fprintf ppf "}@."

let save_file path env lib =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  (try write ppf env lib with e -> close_out oc; raise e);
  Format.pp_print_flush ppf ();
  close_out oc

(* -- focused reader for the dialect [write] emits ------------------- *)

let strip s = String.trim s

(* "index_1 (\"a, b, c\");" -> [| a; b; c |] *)
let parse_axis line =
  match (String.index_opt line '"', String.rindex_opt line '"') with
  | Some i, Some j when j > i ->
      String.sub line (i + 1) (j - i - 1)
      |> String.split_on_char ','
      |> List.map (fun s -> float_of_string (strip s))
      |> Array.of_list
  | _ -> failwith ("liberty: bad axis line: " ^ line)

let prefixed prefix line =
  String.length line >= String.length prefix
  && String.sub line 0 (String.length prefix) = prefix

let read text =
  let lines = String.split_on_char '\n' text |> List.map strip in
  let lib : Nldm.library = Hashtbl.create 16 in
  (* Parser state. *)
  let cell = ref None in
  let input_cap = ref 0.0 in
  let cap_seen = ref false in
  let slew_axis = ref [||] and load_axis = ref [||] in
  let table_kind = ref "" in
  let in_values = ref false in
  let value_rows = ref [] in
  let delay = ref [||] and slew_out = ref [||] in
  let arcs_done = ref false in
  let finish_cell () =
    match !cell with
    | Some name when Array.length !delay > 0 && Array.length !slew_out > 0 ->
        Hashtbl.replace lib name
          {
            Nldm.cell = name;
            input_cap = !input_cap;
            tbl =
              {
                Nldm.slew_axis = !slew_axis;
                load_axis = !load_axis;
                delay = !delay;
                slew_out = !slew_out;
              };
          }
    | Some _ | None -> ()
  in
  List.iter
    (fun line ->
      if prefixed "cell (" line then begin
        finish_cell ();
        let name =
          String.sub line 6 (String.index line ')' - 6)
        in
        cell := Some name;
        cap_seen := false;
        arcs_done := false;
        delay := [||];
        slew_out := [||]
      end
      else if prefixed "capacitance :" line && not !cap_seen then begin
        cap_seen := true;
        let v = String.sub line 13 (String.length line - 14) in
        input_cap := float_of_string (strip v)
      end
      else if prefixed "cell_rise" line || prefixed "rise_transition" line
              || prefixed "cell_fall" line || prefixed "fall_transition" line
      then begin
        table_kind := List.hd (String.split_on_char ' ' line);
        in_values := false
      end
      else if prefixed "index_1" line && !cell <> None && !table_kind <> "" then
        slew_axis := parse_axis line
      else if prefixed "index_2" line && !cell <> None && !table_kind <> "" then
        load_axis := parse_axis line
      else if prefixed "values (" line then begin
        in_values := true;
        value_rows := []
      end
      else if !in_values && String.contains line '"' then
        value_rows := parse_axis line :: !value_rows
      else if !in_values && prefixed ");" line then begin
        in_values := false;
        if not !arcs_done then begin
          let m = Array.of_list (List.rev !value_rows) in
          match !table_kind with
          | "cell_rise" -> delay := m
          | "rise_transition" ->
              slew_out := m;
              (* Only the first arc's tables are retained. *)
              arcs_done := true
          | _ -> ()
        end
      end)
    lines;
  finish_cell ();
  if Hashtbl.length lib = 0 then failwith "liberty: no cells parsed";
  lib
