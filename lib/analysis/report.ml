type severity = Critical | High | Medium | Info
type plane = Static | Dynamic

type finding = {
  pass : string;
  severity : severity;
  plane : plane;
  component : string;
  detail : string;
  key : string;
  count : int;
}

let severity_name = function
  | Critical -> "critical"
  | High -> "high"
  | Medium -> "medium"
  | Info -> "info"

(* 0 = most severe. *)
let severity_rank = function Critical -> 0 | High -> 1 | Medium -> 2 | Info -> 3
let plane_name = function Static -> "static" | Dynamic -> "dynamic"

let make ~pass ~severity ~plane ~component ~detail ~key =
  { pass; severity; plane; component; detail; key; count = 1 }

(* Stable order for tables, JSON and diffs: severity first, then key. *)
let sort fs =
  List.sort
    (fun a b ->
      match compare (severity_rank a.severity) (severity_rank b.severity) with
      | 0 -> compare a.key b.key
      | c -> c)
    fs

(* Identical findings (same key) collapse to the first occurrence, with
   [count] summed — "RAMFS leaked its chunk window (x12)" instead of
   twelve rows. [baseline_counts] sums counts, so the baseline is
   invariant under dedup. *)
let dedup fs =
  let totals = Hashtbl.create 32 in
  List.iter
    (fun f ->
      Hashtbl.replace totals f.key
        (f.count + Option.value ~default:0 (Hashtbl.find_opt totals f.key)))
    fs;
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun f ->
      if Hashtbl.mem seen f.key then None
      else begin
        Hashtbl.replace seen f.key ();
        Some { f with count = Hashtbl.find totals f.key }
      end)
    fs

let print_table ppf fs =
  match sort fs with
  | [] -> Format.fprintf ppf "  no findings@."
  | fs ->
      Format.fprintf ppf "  %-8s  %-7s  %-15s  %-10s  %s@." "SEVERITY" "PLANE" "PASS"
        "COMPONENT" "DETAIL";
      List.iter
        (fun f ->
          Format.fprintf ppf "  %-8s  %-7s  %-15s  %-10s  %s%s@."
            (String.uppercase_ascii (severity_name f.severity))
            (plane_name f.plane) f.pass f.component f.detail
            (if f.count > 1 then Printf.sprintf " (x%d)" f.count else ""))
        fs

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ?(extra = []) fs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  \"%s\": %s,\n" k v)) extra;
  Buffer.add_string b "  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"pass\": \"%s\", \"severity\": \"%s\", \"plane\": \"%s\", \
            \"component\": \"%s\", \"detail\": \"%s\", \"key\": \"%s\", \"count\": %d}"
           (json_escape f.pass)
           (severity_name f.severity)
           (plane_name f.plane) (json_escape f.component) (json_escape f.detail)
           (json_escape f.key) f.count))
    (sort fs);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Baseline format: the flat {"key": count} JSON the bench harness
   already reads and writes for golden cycle counts, keyed by finding
   key. Keys are address-free by construction, so the baseline is
   stable across runs and OCaml versions. *)
let baseline_counts fs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun f ->
      Hashtbl.replace tbl f.key (f.count + Option.value ~default:0 (Hashtbl.find_opt tbl f.key)))
    fs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let diff_baseline ~baseline fs =
  let current = baseline_counts fs in
  let fresh =
    List.filter
      (fun (k, n) -> n > Option.value ~default:0 (List.assoc_opt k baseline))
      current
  in
  let resolved =
    List.filter
      (fun (k, n) -> n > Option.value ~default:0 (List.assoc_opt k current))
      baseline
  in
  (fresh, resolved)
