(* Golden files: flat {"key": int} JSON objects holding the deterministic
   rows a bench target measures (simulated cycles and counts). One
   writer, one reader and one checker serve every target; CI greps the
   checker's "golden check OK" line. *)

let write path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  \"%s\": %d%s\n" k v (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "}\n";
  close_out oc

(* Flat objects only; this scanner is all the JSON we need. *)
let parse s =
  let pairs = ref [] in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '"' then begin
      let j = String.index_from s (!i + 1) '"' in
      let key = String.sub s (!i + 1) (j - !i - 1) in
      let k = ref (j + 1) in
      while !k < n && (s.[!k] = ':' || s.[!k] = ' ') do
        incr k
      done;
      let st = !k in
      while !k < n && (match s.[!k] with '0' .. '9' | '-' -> true | _ -> false) do
        incr k
      done;
      if !k > st then pairs := (key, int_of_string (String.sub s st (!k - st))) :: !pairs;
      i := !k
    end
    else incr i
  done;
  List.rev !pairs

let read path = parse (In_channel.with_open_bin path In_channel.input_all)

(* [read path], or exit 1 naming the command line that generates it. *)
let load path ~generate =
  if not (Sys.file_exists path) then begin
    Printf.printf
      "GOLDEN FILE MISSING: %s\nGenerate it with:\n  dune exec bench/main.exe -- %s %s\n" path
      generate path;
    exit 1
  end;
  read path

(* The simulator is deterministic, so the match is exact: a value that
   changed, a measured key the golden file lacks and a golden key that
   was not measured all fail. [recalibrate] is the target and flags
   whose --write-golden regenerates the file. *)
let check ~path ~rows ~ok ~recalibrate =
  let golden = load path ~generate:(recalibrate ^ " --write-golden") in
  let changed =
    List.filter_map
      (fun (key, v) ->
        match List.assoc_opt key golden with
        | Some g when g = v -> None
        | Some g -> Some (Printf.sprintf "%s: golden %d, measured %d" key g v)
        | None -> Some (key ^ ": missing from golden file"))
      rows
  in
  let stale =
    List.filter_map
      (fun (key, _) ->
        if List.mem_assoc key rows then None else Some (key ^ ": in golden file but not measured"))
      golden
  in
  match changed @ stale with
  | [] -> Printf.printf "\ngolden check OK: %s %s\n" ok path
  | drift ->
      Printf.printf "\nGOLDEN DRIFT vs %s:\n" path;
      List.iter (Printf.printf "  %s\n") drift;
      Printf.printf
        "If the drift is an intentional model or stack change, recalibrate with:\n\
        \  dune exec bench/main.exe -- %s --write-golden %s\n"
        recalibrate path;
      exit 1

(* The tail every golden-checked target shares: write [rows] to [out],
   then optionally to a new golden file ("wrote golden <what> to ...")
   and against an existing one. *)
let emit ?golden ?write_golden ~out ~what ~ok ~recalibrate rows =
  write out rows;
  Printf.printf "wrote %s\n" out;
  Option.iter
    (fun path ->
      write path rows;
      Printf.printf "wrote golden %s to %s\n" what path)
    write_golden;
  Option.iter (fun path -> check ~path ~rows ~ok ~recalibrate) golden
