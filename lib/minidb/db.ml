open Cubicle

(* Composite index keys: value * 2^22 + rowid. Values must fit 40 bits
   signed, rowids 22 bits — ample for speedtest-scale data. *)
let rowid_bits = 22
let rowid_mask = Int64.of_int ((1 lsl rowid_bits) - 1)

let composite v rowid =
  Int64.add (Int64.shift_left v rowid_bits) (Int64.logand rowid rowid_mask)

let text_key s =
  (* stable 38-bit hash for equality-only text indexes *)
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFFFF) s;
  Int64.of_int !h

type index = {
  idx_name : string;
  idx_col : int;
  idx_text : bool;
  idx_tree : Btree.t;
}

type table = {
  tbl_name : string;
  tree : Btree.t;
  mutable next_rowid : int64;
  mutable indexes : index list;
}

type t = { pager : Pager.t; mutable tables : table list; mutable dirty_catalog : bool }

let pager t = t.pager

(* --- catalog (page 0) ------------------------------------------------------ *)

let magic = 0x4D444231 (* "MDB1" *)

let encode_catalog t =
  let b = Buffer.create 256 in
  Buffer.add_int32_le b (Int32.of_int magic);
  Buffer.add_uint16_le b (List.length t.tables);
  List.iter
    (fun tbl ->
      Buffer.add_uint8 b (String.length tbl.tbl_name);
      Buffer.add_string b tbl.tbl_name;
      Buffer.add_int32_le b (Int32.of_int (Btree.root tbl.tree));
      Buffer.add_int64_le b tbl.next_rowid;
      Buffer.add_uint8 b (List.length tbl.indexes);
      List.iter
        (fun idx ->
          Buffer.add_uint8 b (String.length idx.idx_name);
          Buffer.add_string b idx.idx_name;
          Buffer.add_uint8 b idx.idx_col;
          Buffer.add_uint8 b (if idx.idx_text then 1 else 0);
          Buffer.add_int32_le b (Int32.of_int (Btree.root idx.idx_tree)))
        tbl.indexes)
    t.tables;
  Buffer.contents b

(* Decodes page 0 from its frame view; everything it returns is copied
   out of the frame. *)
let decode_catalog pager v =
  if Pager.get_u32 v 0 <> magic then Types.error "db: bad catalog magic";
  let ntables = Pager.get_u16 v 4 in
  let pos = ref 6 in
  let u8 () = let x = Pager.get_u8 v !pos in incr pos; x in
  let str n = let x = Pager.sub_string v !pos n in pos := !pos + n; x in
  let u32 () = let x = Pager.get_u32 v !pos in pos := !pos + 4; x in
  let i64 () = let x = Pager.get_i64 v !pos in pos := !pos + 8; x in
  List.init ntables (fun _ ->
      let name = str (u8 ()) in
      let root = u32 () in
      let next_rowid = i64 () in
      let nidx = u8 () in
      let indexes =
        List.init nidx (fun _ ->
            let idx_name = str (u8 ()) in
            let idx_col = u8 () in
            let idx_text = u8 () = 1 in
            let root = u32 () in
            { idx_name; idx_col; idx_text; idx_tree = Btree.attach pager ~root })
      in
      { tbl_name = name; tree = Btree.attach pager ~root; next_rowid; indexes })

let save_catalog t =
  let s = encode_catalog t in
  if String.length s > Pager.page_size then Types.error "db: catalog overflows page 0";
  Pager.write_page t.pager 0 (fun addr ->
      Api.write_string (Pager.ctx t.pager) addr s;
      Api.memset (Pager.ctx t.pager) (addr + String.length s)
        (Pager.page_size - String.length s) '\000');
  t.dirty_catalog <- false

let open_db ?cache_pages ?journal_mode os ~path =
  let pager = Pager.open_db ?cache_pages ?journal_mode os ~path in
  if Pager.page_count pager = 0 then begin
    let p0 = Pager.allocate_page pager in
    assert (p0 = 0);
    let t = { pager; tables = []; dirty_catalog = true } in
    save_catalog t;
    t
  end
  else begin
    { pager; tables = Pager.with_page_view pager 0 (decode_catalog pager); dirty_catalog = false }
  end

let close t =
  save_catalog t;
  Pager.close t.pager

(* --- schema ------------------------------------------------------------------ *)

let create_table t name =
  if List.exists (fun tbl -> tbl.tbl_name = name) t.tables then
    Types.error "db: table %s exists" name;
  let tbl = { tbl_name = name; tree = Btree.create t.pager; next_rowid = 1L; indexes = [] } in
  t.tables <- t.tables @ [ tbl ];
  t.dirty_catalog <- true;
  tbl

let find_table t name =
  match List.find_opt (fun tbl -> tbl.tbl_name = name) t.tables with
  | Some tbl -> tbl
  | None -> Types.error "db: no table %s" name

let table_names t = List.map (fun tbl -> tbl.tbl_name) t.tables

let col_value row col =
  match List.nth_opt row col with
  | Some v -> v
  | None -> Types.error "db: row has no column %d" col

let index_key idx rowid row =
  match col_value row idx.idx_col with
  | Record.Int v when not idx.idx_text -> composite v rowid
  | Record.Text s when idx.idx_text -> composite (text_key s) rowid
  | Record.Null -> composite Int64.min_int rowid
  | v ->
      Types.error "db: index %s: column type mismatch (%s)" idx.idx_name
        (Format.asprintf "%a" Record.pp v)

let create_index t tbl ~col ~name =
  if List.exists (fun i -> i.idx_name = name) tbl.indexes then
    Types.error "db: index %s exists" name;
  (* sniff column type from the first row, defaulting to integer *)
  let textual = ref false in
  (try
     Btree.iter_all tbl.tree (fun _ payload ->
         (match col_value (Record.decode payload) col with
         | Record.Text _ -> textual := true
         | Record.Int _ | Record.Null -> ());
         raise Exit)
   with Exit -> ());
  let idx = { idx_name = name; idx_col = col; idx_text = !textual; idx_tree = Btree.create t.pager } in
  Btree.iter_all tbl.tree (fun rowid payload ->
      let row = Record.decode payload in
      Btree.insert idx.idx_tree ~key:(index_key idx rowid row)
        ~payload:(Int64.to_string rowid));
  tbl.indexes <- tbl.indexes @ [ idx ];
  t.dirty_catalog <- true;
  idx

let find_index t name =
  let rec scan = function
    | [] -> Types.error "db: no index %s" name
    | tbl :: rest -> (
        match List.find_opt (fun i -> i.idx_name = name) tbl.indexes with
        | Some i -> i
        | None -> scan rest)
  in
  scan t.tables

let row_count tbl = Btree.count_range tbl.tree ~lo:Int64.min_int ~hi:Int64.max_int

(* --- transactions --------------------------------------------------------------- *)

let begin_txn t =
  (* make the pre-transaction state durable: the rollback path reloads
     the catalog from the file, so it must be there (and clean frames
     must match the file) before journalling starts *)
  if t.dirty_catalog then save_catalog t;
  Pager.flush t.pager;
  Pager.begin_txn t.pager

let commit t =
  if t.dirty_catalog then save_catalog t;
  Pager.commit t.pager

let rollback t =
  Pager.rollback t.pager;
  (* roots may have moved and been rolled back: reload the catalog *)
  t.tables <- Pager.with_page_view t.pager 0 (decode_catalog t.pager);
  t.dirty_catalog <- false

let with_txn t f =
  begin_txn t;
  match f () with
  | v ->
      commit t;
      v
  | exception e ->
      rollback t;
      raise e

(* --- rows ------------------------------------------------------------------------ *)

let insert t tbl row =
  let rowid = tbl.next_rowid in
  tbl.next_rowid <- Int64.add rowid 1L;
  t.dirty_catalog <- true;
  Btree.insert tbl.tree ~key:rowid ~payload:(Record.encode row);
  List.iter
    (fun idx ->
      Btree.insert idx.idx_tree ~key:(index_key idx rowid row)
        ~payload:(Int64.to_string rowid))
    tbl.indexes;
  rowid

let get tbl rowid = Option.map Record.decode (Btree.find tbl.tree rowid)

let update t tbl rowid row =
  match Btree.find tbl.tree rowid with
  | None -> false
  | Some old_payload ->
      let old_row = Record.decode old_payload in
      List.iter
        (fun idx ->
          let old_key = index_key idx rowid old_row in
          let new_key = index_key idx rowid row in
          if not (Int64.equal old_key new_key) then begin
            ignore (Btree.delete idx.idx_tree old_key);
            Btree.insert idx.idx_tree ~key:new_key ~payload:(Int64.to_string rowid)
          end)
        tbl.indexes;
      Btree.insert tbl.tree ~key:rowid ~payload:(Record.encode row);
      t.dirty_catalog <- true;
      true

let delete t tbl rowid =
  match Btree.find tbl.tree rowid with
  | None -> false
  | Some payload ->
      let row = Record.decode payload in
      List.iter
        (fun idx -> ignore (Btree.delete idx.idx_tree (index_key idx rowid row)))
        tbl.indexes;
      ignore (Btree.delete tbl.tree rowid);
      t.dirty_catalog <- true;
      true

(* --- queries ---------------------------------------------------------------------- *)

let scan tbl f = Btree.iter_all tbl.tree (fun rowid payload -> f rowid (Record.decode payload))

let scan_range tbl ~lo ~hi f =
  Btree.iter_range tbl.tree ~lo ~hi (fun rowid payload -> f rowid (Record.decode payload))

let fetch_for tbl f rowid =
  match get tbl rowid with Some row -> f rowid row | None -> ()

let index_range idx tbl ~lo ~hi f =
  let lo64 = Int64.shift_left (Int64.of_int lo) rowid_bits in
  let hi64 = Int64.add (Int64.shift_left (Int64.of_int hi) rowid_bits) rowid_mask in
  Btree.iter_range idx.idx_tree ~lo:lo64 ~hi:hi64 (fun _ payload ->
      fetch_for tbl f (Int64.of_string payload))

let index_eq_text idx tbl s f =
  let v = text_key s in
  let lo64 = Int64.shift_left v rowid_bits in
  let hi64 = Int64.add lo64 rowid_mask in
  Btree.iter_range idx.idx_tree ~lo:lo64 ~hi:hi64 (fun _ payload ->
      let rowid = Int64.of_string payload in
      (* hash index: verify the actual value *)
      match get tbl rowid with
      | Some row when Record.to_text (col_value row idx.idx_col) = s -> f rowid row
      | _ -> ())

let count_where tbl pred =
  let n = ref 0 in
  scan tbl (fun _ row -> if pred row then incr n);
  !n

let max_rowid tbl = Option.value ~default:0L (Btree.max_key tbl.tree)

let integrity_check t =
  List.for_all
    (fun tbl ->
      let rows = row_count tbl in
      List.for_all
        (fun idx ->
          let entries = ref 0 in
          let ok = ref true in
          Btree.iter_all idx.idx_tree (fun key payload ->
              incr entries;
              let rowid = Int64.of_string payload in
              match get tbl rowid with
              | None -> ok := false
              | Some row -> if not (Int64.equal key (index_key idx rowid row)) then ok := false);
          !ok && !entries = rows)
        tbl.indexes)
    t.tables
