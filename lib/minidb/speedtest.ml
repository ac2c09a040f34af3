open Cubicle

(* Handles on the symbols this component calls, made once. *)
module Import = struct
  let uk_time_ns = Api.import "uk_time_ns"
end

type group = Light | Heavy

type query = { id : int; name : string; group : group }

let queries =
  [
    { id = 100; name = "batched INSERTs into t1"; group = Light };
    { id = 110; name = "batched indexed INSERTs into t2"; group = Light };
    { id = 120; name = "batched UPDATEs on t1"; group = Light };
    { id = 130; name = "per-row UPDATE txns on t2"; group = Heavy };
    { id = 140; name = "point SELECTs on t1"; group = Light };
    { id = 142; name = "range SELECTs on t1"; group = Light };
    { id = 145; name = "index range SELECTs on t1"; group = Light };
    { id = 150; name = "SUM aggregate on t1"; group = Light };
    { id = 160; name = "filtered COUNT on t1"; group = Light };
    { id = 161; name = "MIN/MAX probes on t1"; group = Light };
    { id = 170; name = "per-row DELETE+reINSERT txns on t2"; group = Heavy };
    { id = 180; name = "batched INSERTs into t1 (second wave)"; group = Light };
    { id = 190; name = "CREATE t3 AS COPY OF t1"; group = Light };
    { id = 210; name = "CREATE INDEX on t2(b)"; group = Heavy };
    { id = 230; name = "small UPDATE txns on t1"; group = Light };
    { id = 240; name = "random point SELECTs on t2"; group = Heavy };
    { id = 250; name = "sequential scan of t1"; group = Light };
    { id = 260; name = "rowid join t1-t2 (random keys)"; group = Heavy };
    { id = 270; name = "index join t1-t2"; group = Heavy };
    { id = 280; name = "GROUP BY over t2"; group = Heavy };
    { id = 290; name = "ORDER BY over random subset of t2"; group = Heavy };
    { id = 300; name = "predicate scan of t1"; group = Light };
    { id = 310; name = "per-row wide-row INSERT txns into t4"; group = Heavy };
    { id = 320; name = "COUNT(*) of t1"; group = Light };
    { id = 400; name = "sequential rowid reads of t1"; group = Light };
    { id = 410; name = "random wide-row reads of t4"; group = Heavy };
    { id = 500; name = "batched text INSERTs into t5"; group = Light };
    { id = 510; name = "text predicate scan of t2"; group = Heavy };
    { id = 520; name = "mixed read txn on t1"; group = Light };
    { id = 980; name = "integrity check"; group = Heavy };
    { id = 990; name = "analyze row counts"; group = Light };
  ]

type state = { db : Db.t; n : int; mutable seed : int }

let rand st bound =
  st.seed <- ((st.seed * 1103515245) + 12345) land 0x3FFFFFFF;
  st.seed mod bound

let prepare os ~path ~n =
  let db = Db.open_db ~cache_pages:48 os ~path in
  { db; n = max 10 n; seed = 42 }

let finish st = Db.close st.db

(* t1/t3/t5 are small (cache-resident); t2 is ~4n rows of ~440 B and
   exceeds the 48-page cache; t4 holds ~900 B wide rows. *)

let t1_row st i =
  [ Record.int i; Record.int (rand st 1000); Record.Text (Printf.sprintf "row-%06d" i) ]

let t2_row st i =
  [
    Record.int (rand st (4 * st.n));
    Record.int (rand st 1_000_000);
    Record.Text (Printf.sprintf "payload-%08d-%s" i (String.make 400 'd'));
  ]

(* Queries execute as the application cubicle: its own B-tree parsing,
   record decoding and cache handling run under its MPK permissions,
   exactly like SQLite code inside the SQLITE cubicle. *)
let as_app st f =
  let ctx = Pager.ctx (Db.pager st.db) in
  Monitor.run_as ctx.Monitor.mon ctx.Monitor.self f

let run_query st q =
  let db = st.db in
  let n = st.n in
  match q.id with
  | 100 ->
      let t1 = Db.create_table db "t1" in
      Db.with_txn db (fun () ->
          for i = 1 to n do
            ignore (Db.insert db t1 (t1_row st i))
          done)
  | 110 ->
      let t2 = Db.create_table db "t2" in
      ignore (Db.create_index db t2 ~col:0 ~name:"t2a");
      Db.with_txn db (fun () ->
          for i = 1 to 4 * n do
            ignore (Db.insert db t2 (t2_row st i))
          done)
  | 120 ->
      let t1 = Db.find_table db "t1" in
      Db.with_txn db (fun () ->
          for i = 1 to n do
            ignore (Db.update db t1 (Int64.of_int i) (t1_row st i))
          done)
  | 130 ->
      let t2 = Db.find_table db "t2" in
      for _ = 1 to (4 * n) / 10 do
        let rowid = Int64.of_int (1 + rand st (4 * n)) in
        Db.with_txn db (fun () -> ignore (Db.update db t2 rowid (t2_row st 0)))
      done
  | 140 ->
      let t1 = Db.find_table db "t1" in
      for i = 1 to n do
        ignore (Db.get t1 (Int64.of_int i))
      done
  | 142 ->
      let t1 = Db.find_table db "t1" in
      for _ = 1 to 100 do
        let lo = 1 + rand st n in
        let count = ref 0 in
        Db.scan_range t1 ~lo:(Int64.of_int lo)
          ~hi:(Int64.of_int (lo + (n / 20)))
          (fun _ _ -> incr count)
      done
  | 145 ->
      let t1 = Db.find_table db "t1" in
      let idx =
        try Db.find_index db "t1a"
        with Types.Error _ -> Db.create_index db t1 ~col:0 ~name:"t1a"
      in
      for _ = 1 to 100 do
        let lo = rand st n in
        Db.index_range idx t1 ~lo ~hi:(lo + 10) (fun _ _ -> ())
      done
  | 150 ->
      let t1 = Db.find_table db "t1" in
      let sum = ref 0L in
      Db.scan t1 (fun _ row -> sum := Int64.add !sum (Int64.of_int (Record.to_int (List.nth row 1))));
      ignore !sum
  | 160 ->
      let t1 = Db.find_table db "t1" in
      ignore (Db.count_where t1 (fun row -> Record.to_int (List.nth row 1) mod 3 = 0))
  | 161 ->
      let t1 = Db.find_table db "t1" in
      let mn = ref max_int and mx = ref min_int in
      Db.scan t1 (fun _ row ->
          let v = Record.to_int (List.nth row 1) in
          if v < !mn then mn := v;
          if v > !mx then mx := v)
  | 170 ->
      let t2 = Db.find_table db "t2" in
      for _ = 1 to (4 * n) / 10 do
        let rowid = Int64.of_int (1 + rand st (4 * n)) in
        Db.with_txn db (fun () ->
            match Db.get t2 rowid with
            | None -> ()
            | Some row ->
                ignore (Db.delete db t2 rowid);
                ignore (Db.insert db t2 row))
      done
  | 180 ->
      let t1 = Db.find_table db "t1" in
      Db.with_txn db (fun () ->
          for i = n + 1 to 2 * n do
            ignore (Db.insert db t1 (t1_row st i))
          done)
  | 190 ->
      let t1 = Db.find_table db "t1" in
      let t3 = Db.create_table db "t3" in
      Db.with_txn db (fun () -> Db.scan t1 (fun _ row -> ignore (Db.insert db t3 row)))
  | 210 ->
      let t2 = Db.find_table db "t2" in
      Db.with_txn db (fun () -> ignore (Db.create_index db t2 ~col:1 ~name:"t2b"))
  | 230 ->
      let t1 = Db.find_table db "t1" in
      for _ = 1 to n / 10 do
        let rowid = Int64.of_int (1 + rand st n) in
        Db.with_txn db (fun () -> ignore (Db.update db t1 rowid (t1_row st 0)))
      done
  | 240 ->
      let t2 = Db.find_table db "t2" in
      for _ = 1 to 4 * n do
        ignore (Db.get t2 (Int64.of_int (1 + rand st (4 * n))))
      done
  | 250 ->
      let t1 = Db.find_table db "t1" in
      Db.scan t1 (fun _ _ -> ())
  | 260 ->
      let t1 = Db.find_table db "t1" in
      let t2 = Db.find_table db "t2" in
      for _ = 1 to n do
        let rowid = Int64.of_int (1 + rand st n) in
        match Db.get t1 rowid with
        | None -> ()
        | Some _ -> ignore (Db.get t2 (Int64.of_int (1 + rand st (4 * n))))
      done
  | 270 ->
      let t1 = Db.find_table db "t1" in
      let t2 = Db.find_table db "t2" in
      let idx = Db.find_index db "t2a" in
      Db.scan_range t1 ~lo:1L ~hi:(Int64.of_int (n / 2)) (fun _ row ->
          let v = Record.to_int (List.hd row) in
          Db.index_range idx t2 ~lo:v ~hi:v (fun _ _ -> ()))
  | 280 ->
      let t2 = Db.find_table db "t2" in
      let groups = Hashtbl.create 64 in
      Db.scan t2 (fun _ row ->
          let g = Record.to_int (List.hd row) mod 97 in
          Hashtbl.replace groups g (1 + Option.value ~default:0 (Hashtbl.find_opt groups g)))
  | 290 ->
      let t2 = Db.find_table db "t2" in
      let acc = ref [] in
      for _ = 1 to n do
        match Db.get t2 (Int64.of_int (1 + rand st (4 * n))) with
        | Some row -> acc := Record.to_int (List.nth row 1) :: !acc
        | None -> ()
      done;
      ignore (List.sort compare !acc)
  | 300 ->
      let t1 = Db.find_table db "t1" in
      ignore
        (Db.count_where t1 (fun row ->
             String.length (Record.to_text (List.nth row 2)) > 5))
  | 310 ->
      let t4 = Db.create_table db "t4" in
      for i = 1 to n / 5 do
        Db.with_txn db (fun () ->
            ignore
              (Db.insert db t4
                 [ Record.int i; Record.Text (String.make 900 (Char.chr (65 + (i mod 26)))) ]))
      done
  | 320 ->
      let t1 = Db.find_table db "t1" in
      ignore (Db.row_count t1)
  | 400 ->
      let t1 = Db.find_table db "t1" in
      let hi = Int64.to_int (Db.max_rowid t1) in
      for i = 1 to hi do
        ignore (Db.get t1 (Int64.of_int i))
      done
  | 410 ->
      let t4 = Db.find_table db "t4" in
      for _ = 1 to n do
        ignore (Db.get t4 (Int64.of_int (1 + rand st (n / 5))))
      done
  | 500 ->
      let t5 = Db.create_table db "t5" in
      Db.with_txn db (fun () ->
          for i = 1 to n do
            ignore
              (Db.insert db t5 [ Record.Text (Printf.sprintf "text-%d-%s" i (String.make 30 't')) ])
          done)
  | 510 ->
      let t2 = Db.find_table db "t2" in
      ignore
        (Db.count_where t2 (fun row ->
             let s = Record.to_text (List.nth row 2) in
             String.length s > 10 && s.[8] = '0'))
  | 520 ->
      let t1 = Db.find_table db "t1" in
      Db.with_txn db (fun () ->
          for _ = 1 to n / 2 do
            ignore (Db.get t1 (Int64.of_int (1 + rand st n)))
          done)
  | 980 ->
      if not (Db.integrity_check db) then Types.error "speedtest: integrity check failed"
  | 990 ->
      List.iter (fun name -> ignore (Db.row_count (Db.find_table db name))) (Db.table_names db)
  | id -> Types.error "speedtest: unknown query %d" id

(* speedtest1 brackets each query with clock reads, so the TIME edge
   of the paper's Figure 8 appears *)
let run st q =
  as_app st (fun () ->
      let ctx = Pager.ctx (Db.pager st.db) in
      let clock () =
        if Monitor.imported ctx.Monitor.mon Import.uk_time_ns then
          ignore (Api.call ctx Import.uk_time_ns [||])
      in
      clock ();
      run_query st q;
      clock ())

let run_all os ~path ~n ~measure =
  let st = prepare os ~path ~n in
  let results = List.map (fun q -> (q, measure (fun () -> run st q))) queries in
  finish st;
  results
