(* Tests for the database engine: records, pager (cache + journal),
   B+tree, tables/indexes, transactions, and the speedtest workload. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let app_component () = Builder.component ~heap_pages:256 ~stack_pages:4 "APP"

let mk_os ?(protection = Types.Full) () =
  let sys =
    Libos.Boot.fs_stack ~protection ~mem_bytes:(128 * 1024 * 1024)
      ~extra:[ (app_component (), Types.Isolated) ]
      ()
  in
  Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "APP"))

let mk_linux_os () =
  let mon = Monitor.create ~protection:Types.None_ ~mem_bytes:(64 * 1024 * 1024) () in
  let cid = Monitor.create_cubicle mon ~name:"APP" ~kind:Types.Isolated ~heap_pages:256 ~stack_pages:4 in
  Minidb.Os_iface.linux (Monitor.ctx_for mon cid)

(* --- record ----------------------------------------------------------------- *)

let test_record_roundtrip () =
  let row = [ Minidb.Record.Null; Minidb.Record.int 42; Minidb.Record.Text "hello"; Minidb.Record.Int (-7L) ] in
  Alcotest.(check bool) "roundtrip" true (Minidb.Record.decode (Minidb.Record.encode row) = row)

let test_record_empty_and_errors () =
  check_bool "empty row" true (Minidb.Record.decode (Minidb.Record.encode []) = []);
  check_bool "garbage rejected" true
    (try ignore (Minidb.Record.decode "\x01\x09") ; false with Invalid_argument _ -> true)

let test_record_compare () =
  check_bool "null < int" true (Minidb.Record.compare_value Minidb.Record.Null (Minidb.Record.int 0) < 0);
  check_bool "int < text" true (Minidb.Record.compare_value (Minidb.Record.int 9) (Minidb.Record.Text "a") < 0);
  check_int "int order" (-1) (Minidb.Record.compare_value (Minidb.Record.int 1) (Minidb.Record.int 2))

let prop_record_roundtrip =
  let value_gen =
    QCheck.Gen.(
      oneof
        [
          return Minidb.Record.Null;
          map (fun i -> Minidb.Record.Int (Int64.of_int i)) int;
          map (fun s -> Minidb.Record.Text s) (string_size (int_bound 100));
        ])
  in
  QCheck.Test.make ~name:"record: encode/decode roundtrip"
    (QCheck.make QCheck.Gen.(list_size (int_bound 20) value_gen))
    (fun row -> Minidb.Record.decode (Minidb.Record.encode row) = row)

(* --- pager ------------------------------------------------------------------- *)

let test_pager_basic_rw () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/test.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.write_page p pg (fun addr -> Api.write_string os.ctx addr "page data");
  Minidb.Pager.flush p;
  let s =
    Minidb.Pager.read_page p pg (fun addr -> Api.read_string os.ctx addr 9)
  in
  check_str "read back" "page data" s;
  Minidb.Pager.close p

let test_pager_persistence () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/persist.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.write_page p pg (fun addr -> Api.write_string os.ctx addr "persisted");
  Minidb.Pager.close p;
  (* reopen: data must come back from the file system *)
  let p2 = Minidb.Pager.open_db os ~path:"/persist.db" in
  check_int "page count" 1 (Minidb.Pager.page_count p2);
  check_str "contents" "persisted"
    (Minidb.Pager.read_page p2 pg (fun addr -> Api.read_string os.ctx addr 9));
  Minidb.Pager.close p2

let test_pager_eviction () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~cache_pages:4 os ~path:"/evict.db" in
  let pages = List.init 10 (fun _ -> Minidb.Pager.allocate_page p) in
  List.iteri
    (fun i pg -> Minidb.Pager.write_page p pg (fun addr -> Api.write_u32 os.ctx addr i))
    pages;
  (* more pages than frames: evictions must have spilled correctly *)
  check_bool "evictions happened" true ((Minidb.Pager.stats p).evictions > 0);
  List.iteri
    (fun i pg ->
      check_int
        (Printf.sprintf "page %d" i)
        i
        (Minidb.Pager.read_page p pg (fun addr -> Api.read_u32 os.ctx addr)))
    pages;
  Minidb.Pager.close p

(* Pin the exact victim sequence — not just "evictions happened". The
   LRU ring must pick the same victims a full-table scan would: least
   recently used first, recency refreshed by hits, and a pinned LRU
   frame skipped in favour of the next-oldest. *)
let test_pager_lru_order () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~cache_pages:4 os ~path:"/lru.db" in
  let pages = List.init 8 (fun _ -> Minidb.Pager.allocate_page p) in
  let pg i = List.nth pages i in
  let read i = ignore (Minidb.Pager.read_page p (pg i) (fun _ -> 0)) in
  let check_cache msg l =
    Alcotest.(check (list int)) msg
      (List.sort compare (List.map pg l))
      (Minidb.Pager.cached_pages p)
  in
  (* allocating 8 pages through 4 frames evicts the first four *)
  check_cache "after fill" [ 4; 5; 6; 7 ];
  read 4;
  (* LRU now 5 *)
  read 0;
  (* evicts 5; LRU now 6 *)
  check_cache "5 evicted" [ 0; 4; 6; 7 ];
  read 6;
  (* LRU now 7 *)
  read 1;
  (* evicts 7; LRU order now 4, 0, 6, 1 *)
  check_cache "7 evicted" [ 0; 1; 4; 6 ];
  (* 4 becomes most recent on the pinning read itself, leaving 0 as
     LRU; the nested miss must evict 0, never the pinned frame *)
  Minidb.Pager.read_page p (pg 4) (fun _ -> read 2);
  check_cache "0 evicted under pin" [ 1; 2; 4; 6 ];
  (* remaining order 6, 1, 4, 2: drain it one miss at a time *)
  read 3;
  check_cache "6 evicted" [ 1; 2; 3; 4 ];
  read 5;
  check_cache "1 evicted" [ 2; 3; 4; 5 ];
  read 7;
  check_cache "4 evicted" [ 2; 3; 5; 7 ];
  (* pin 2, then touch every other frame so the pinned one ends up
     coldest (order 7, 5, 3, 2): the miss must skip it and evict 3 *)
  Minidb.Pager.read_page p (pg 2) (fun _ ->
      read 3;
      read 5;
      read 7;
      read 0;
      check_cache "3 evicted, coldest frame pinned" [ 0; 2; 5; 7 ]);
  (* unpinned again, 2 is the next victim *)
  read 1;
  check_cache "2 evicted after unpin" [ 0; 1; 5; 7 ];
  check_int "evictions" 12 (Minidb.Pager.stats p).evictions;
  Minidb.Pager.close p

let test_pager_commit () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/txn.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.flush p;
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun addr -> Api.write_string os.ctx addr "committed");
  Minidb.Pager.commit p;
  check_bool "journal gone" false (os.exists "/txn.db-journal");
  check_str "visible" "committed"
    (Minidb.Pager.read_page p pg (fun addr -> Api.read_string os.ctx addr 9));
  Minidb.Pager.close p

let test_pager_rollback () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/rb.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.write_page p pg (fun addr -> Api.write_string os.ctx addr "original!");
  Minidb.Pager.flush p;
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun addr -> Api.write_string os.ctx addr "modified!");
  Minidb.Pager.rollback p;
  check_str "restored" "original!"
    (Minidb.Pager.read_page p pg (fun addr -> Api.read_string os.ctx addr 9));
  check_int "allocation rolled back" 1 (Minidb.Pager.page_count p);
  Minidb.Pager.close p

let test_pager_rollback_drops_new_pages () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/rb2.db" in
  ignore (Minidb.Pager.allocate_page p);
  Minidb.Pager.flush p;
  Minidb.Pager.begin_txn p;
  let extra = Minidb.Pager.allocate_page p in
  check_int "new page" 1 extra;
  Minidb.Pager.rollback p;
  check_int "shrunk back" 1 (Minidb.Pager.page_count p);
  Minidb.Pager.close p

let test_pager_rollback_spilled_pages () =
  (* pages evicted (spilled to the file) mid-transaction must still be
     restored by the journal *)
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~cache_pages:4 os ~path:"/spill.db" in
  let pages = List.init 8 (fun _ -> Minidb.Pager.allocate_page p) in
  List.iteri (fun i pg -> Minidb.Pager.write_page p pg (fun a -> Api.write_u32 os.ctx a i)) pages;
  Minidb.Pager.flush p;
  Minidb.Pager.begin_txn p;
  List.iter
    (fun pg -> Minidb.Pager.write_page p pg (fun a -> Api.write_u32 os.ctx a 9999))
    pages;
  Minidb.Pager.rollback p;
  List.iteri
    (fun i pg ->
      check_int "restored" i (Minidb.Pager.read_page p pg (fun a -> Api.read_u32 os.ctx a)))
    pages;
  Minidb.Pager.close p

(* A page the transaction allocated, spilled and read back is cached
   clean; rollback must uncache it with the page, or the next
   allocation of that page number finds a stale frame. *)
let test_pager_rollback_uncaches_dropped_pages () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~cache_pages:4 os ~path:"/rb3.db" in
  for _ = 1 to 4 do
    ignore (Minidb.Pager.allocate_page p)
  done;
  Minidb.Pager.flush p;
  Minidb.Pager.begin_txn p;
  let extra = Minidb.Pager.allocate_page p in
  for pg = 0 to 3 do
    ignore (Minidb.Pager.read_page p pg (fun _ -> 0))
  done;
  ignore (Minidb.Pager.read_page p extra (fun _ -> 0));
  Minidb.Pager.rollback p;
  check_bool "page gone from the cache" false (List.mem extra (Minidb.Pager.cached_pages p));
  check_int "reallocated" extra (Minidb.Pager.allocate_page p);
  Minidb.Pager.write_page p extra (fun a -> Api.write_u32 os.ctx a 7);
  for pg = 0 to 3 do
    ignore (Minidb.Pager.read_page p pg (fun _ -> 0))
  done;
  check_int "reallocated page reads back" 7
    (Minidb.Pager.read_page p extra (fun a -> Api.read_u32 os.ctx a));
  Minidb.Pager.close p

(* Every open allocates its cache frames from the application heap, so
   close must give them back: a workload that reopens its database in a
   loop must not grow the heap. *)
let test_pager_close_frees_frames () =
  let os = mk_os () in
  let mon = os.ctx.Monitor.mon and app = os.ctx.Monitor.self in
  let cycle () =
    let p = Minidb.Pager.open_db ~cache_pages:16 os ~path:"/frames.db" in
    for _ = 1 to 24 do
      ignore (Minidb.Pager.allocate_page p)
    done;
    Minidb.Pager.close p
  in
  let owned () = List.length (Oracle.monitor_pages_owned_by mon app) in
  cycle ();
  let after_one = owned () in
  for _ = 1 to 20 do
    cycle ()
  done;
  check_int "heap pages after 21 open/close cycles" after_one (owned ())

let test_pager_nested_txn_rejected () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/nest.db" in
  Minidb.Pager.begin_txn p;
  check_bool "nested rejected" true
    (try Minidb.Pager.begin_txn p; false with Types.Error _ -> true);
  Minidb.Pager.commit p;
  Minidb.Pager.close p

(* --- WAL journal mode ----------------------------------------------------------- *)

let test_wal_commit_visible () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~journal_mode:Minidb.Pager.Wal os ~path:"/w.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun a -> Api.write_string os.ctx a "wal data!");
  Minidb.Pager.commit p;
  check_bool "records in wal" true (Minidb.Pager.wal_pages p > 0);
  (* database file untouched until checkpoint *)
  check_str "read through wal" "wal data!"
    (Minidb.Pager.read_page p pg (fun a -> Api.read_string os.ctx a 9));
  Minidb.Pager.close p

let test_wal_rollback () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~journal_mode:Minidb.Pager.Wal os ~path:"/wr.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun a -> Api.write_string os.ctx a "original!");
  Minidb.Pager.commit p;
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun a -> Api.write_string os.ctx a "discarded");
  Minidb.Pager.rollback p;
  check_str "restored from wal" "original!"
    (Minidb.Pager.read_page p pg (fun a -> Api.read_string os.ctx a 9));
  Minidb.Pager.close p

let test_wal_checkpoint_and_recovery () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~journal_mode:Minidb.Pager.Wal os ~path:"/wc.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun a -> Api.write_string os.ctx a "checkpointed");
  Minidb.Pager.commit p;
  Minidb.Pager.checkpoint p;
  check_int "wal drained" 0 (Minidb.Pager.wal_pages p);
  check_str "in the db file" "checkpointed"
    (Minidb.Pager.read_page p pg (fun a -> Api.read_string os.ctx a 12));
  (* a crash before checkpoint: reopen recovers from the leftover wal *)
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun a -> Api.write_string os.ctx a "crash-time!!");
  Minidb.Pager.commit p;
  (* simulate a crash: no close/checkpoint; reopen reads the wal file *)
  let p2 = Minidb.Pager.open_db ~journal_mode:Minidb.Pager.Wal os ~path:"/wc.db" in
  check_bool "wal recovered" true (Minidb.Pager.wal_pages p2 > 0);
  check_str "recovered content" "crash-time!!"
    (Minidb.Pager.read_page p2 pg (fun a -> Api.read_string os.ctx a 12));
  Minidb.Pager.close p2

let test_wal_db_engine_end_to_end () =
  let os = mk_os () in
  let db = Minidb.Db.open_db ~journal_mode:Minidb.Pager.Wal os ~path:"/wdb.db" in
  let t = Minidb.Db.create_table db "t" in
  Minidb.Db.with_txn db (fun () ->
      for i = 1 to 200 do
        ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
      done);
  (try
     Minidb.Db.with_txn db (fun () ->
         ignore (Minidb.Db.insert db t [ Minidb.Record.int 999 ]);
         failwith "abort")
   with Failure _ -> ());
  let t = Minidb.Db.find_table db "t" in
  check_int "wal txn semantics" 200 (Minidb.Db.row_count t);
  Minidb.Db.close db;
  (* close checkpointed everything into the main file *)
  let db2 = Minidb.Db.open_db os ~path:"/wdb.db" in
  check_int "persisted via checkpoint" 200 (Minidb.Db.row_count (Minidb.Db.find_table db2 "t"))

(* --- btree -------------------------------------------------------------------- *)

let mk_tree () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/tree.db" in
  (Minidb.Btree.create p, p)

(* A page's bytes, read through its view: unlike a raw [read_page],
   this leaves the frame's offset memo as it is. *)
let page_bytes p pageno =
  Minidb.Pager.with_page_view p pageno (fun v ->
      Minidb.Pager.sub_string v 0 Minidb.Pager.page_size)

(* Every node page reachable from the root must be exactly what the
   reference Buffer-based encoder makes of it, zero-padded to the page. *)
let node_pages_match_reference t p =
  let page_size = Minidb.Pager.page_size in
  let rec visit pageno =
    let bytes = page_bytes p pageno in
    let node = Oracle.btree_decode_node bytes in
    let enc = Oracle.btree_encode_node node in
    String.length enc <= page_size
    && String.equal bytes (enc ^ String.make (page_size - String.length enc) '\000')
    &&
    match node with
    | Oracle.Interior n -> Array.for_all visit n.children
    | Oracle.Leaf _ -> true
  in
  visit (Minidb.Btree.root t)

let test_btree_insert_find () =
  let t, _ = mk_tree () in
  Minidb.Btree.insert t ~key:5L ~payload:"five";
  Minidb.Btree.insert t ~key:1L ~payload:"one";
  Minidb.Btree.insert t ~key:9L ~payload:"nine";
  check_bool "find 5" true (Minidb.Btree.find t 5L = Some "five");
  check_bool "find 1" true (Minidb.Btree.find t 1L = Some "one");
  check_bool "missing" true (Minidb.Btree.find t 7L = None)

let test_btree_replace () =
  let t, _ = mk_tree () in
  Minidb.Btree.insert t ~key:5L ~payload:"old";
  Minidb.Btree.insert t ~key:5L ~payload:"new";
  check_bool "replaced" true (Minidb.Btree.find t 5L = Some "new");
  check_int "one entry" 1 (Minidb.Btree.count_range t ~lo:Int64.min_int ~hi:Int64.max_int)

let test_btree_many_keys_split () =
  let t, _ = mk_tree () in
  let n = 3000 in
  for i = 1 to n do
    Minidb.Btree.insert t ~key:(Int64.of_int (i * 7 mod n)) ~payload:(Printf.sprintf "v%d" (i * 7 mod n))
  done;
  check_bool "tree grew" true (Minidb.Btree.depth t > 1);
  let ok = ref true in
  for i = 0 to n - 1 do
    if Minidb.Btree.find t (Int64.of_int i) <> Some (Printf.sprintf "v%d" i) then ok := false
  done;
  check_bool "all present" true !ok

let test_btree_range_order () =
  let t, _ = mk_tree () in
  for i = 100 downto 1 do
    Minidb.Btree.insert t ~key:(Int64.of_int i) ~payload:(string_of_int i)
  done;
  let seen = ref [] in
  Minidb.Btree.iter_range t ~lo:20L ~hi:40L (fun k _ -> seen := Int64.to_int k :: !seen);
  Alcotest.(check (list int)) "ordered inclusive range" (List.init 21 (fun i -> 20 + i))
    (List.rev !seen)

let test_btree_delete () =
  let t, _ = mk_tree () in
  for i = 1 to 500 do
    Minidb.Btree.insert t ~key:(Int64.of_int i) ~payload:"x"
  done;
  check_bool "delete present" true (Minidb.Btree.delete t 250L);
  check_bool "delete absent" false (Minidb.Btree.delete t 250L);
  check_bool "gone" true (Minidb.Btree.find t 250L = None);
  check_int "count drops" 499 (Minidb.Btree.count_range t ~lo:Int64.min_int ~hi:Int64.max_int)

let test_btree_min_max () =
  let t, _ = mk_tree () in
  check_bool "empty min" true (Minidb.Btree.min_key t = None);
  List.iter (fun k -> Minidb.Btree.insert t ~key:k ~payload:"") [ 42L; -3L; 17L ];
  check_bool "min" true (Minidb.Btree.min_key t = Some (-3L));
  check_bool "max" true (Minidb.Btree.max_key t = Some 42L)

(* Four small entries then three full-size ones fill a leaf; a fourth
   full-size entry overflows it, and splitting by entry count would put
   all four big ones in the right half, which cannot fit a page. *)
let test_btree_uneven_split () =
  let t, p = mk_tree () in
  let big k = String.make Minidb.Btree.max_payload (Char.chr (64 + k)) in
  List.iter (fun k -> Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:"") [ 1; 2; 3; 4 ];
  List.iter (fun k -> Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:(big k)) [ 10; 11; 12; 13 ];
  check_int "split" 2 (Minidb.Btree.depth t);
  List.iter
    (fun k ->
      check_bool (Printf.sprintf "find %d" k) true
        (Minidb.Btree.find t (Int64.of_int k) = Some (if k < 10 then "" else big k)))
    [ 1; 2; 3; 4; 10; 11; 12; 13 ];
  check_bool "pages match the reference codec" true (node_pages_match_reference t p)

let test_btree_payload_cap () =
  let t, _ = mk_tree () in
  check_bool "oversized rejected" true
    (try
       Minidb.Btree.insert t ~key:1L ~payload:(String.make 2000 'x');
       false
     with Types.Error _ -> true)

(* A leaf whose entry count or an entry length is corrupted by a raw
   write makes every operation that reads it raise, and no operation
   stores anything outside the frame: the view accessors check every
   offset against the page. *)
let test_btree_corrupt_leaf_raises () =
  let page_size = Minidb.Pager.page_size in
  List.iter
    (fun (what, off, value) ->
      let t, p = mk_tree () in
      for k = 1 to 5 do
        Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:(String.make 20 'v')
      done;
      let ctx = Minidb.Pager.ctx p in
      let mem = Hw.Cpu.mem ctx.Monitor.cpu in
      let root = Minidb.Btree.root t in
      (* the leaf's memo is valid before the corrupting write *)
      check_bool (what ^ ": found before") true (Minidb.Btree.find t 3L <> None);
      let frame = Minidb.Pager.write_page p root (fun addr ->
          Api.write_u16 ctx (addr + off) value;
          addr)
      in
      let lo = frame - (16 * page_size) and hi = frame + page_size in
      let around () =
        Bytes.to_string (Hw.Phys_mem.read_bytes mem lo (16 * page_size))
        ^ Bytes.to_string (Hw.Phys_mem.read_bytes mem hi (16 * page_size))
      in
      let before = around () in
      let raises name f =
        check_bool (Printf.sprintf "%s: %s raises" what name) true
          (match f () with _ -> false | exception Types.Error _ -> true)
      in
      raises "find" (fun () -> ignore (Minidb.Btree.find t 3L));
      raises "insert" (fun () -> Minidb.Btree.insert t ~key:9L ~payload:"x");
      raises "delete" (fun () -> ignore (Minidb.Btree.delete t 2L));
      raises "iter_range" (fun () -> Minidb.Btree.iter_range t ~lo:0L ~hi:10L (fun _ _ -> ()));
      check_str (what ^ ": nothing stored outside the frame") before (around ());
      (* the failed operations released their views *)
      check_int (what ^ ": leaf kind still readable") 1
        (Minidb.Pager.read_page p root (fun addr -> Api.read_u8 ctx addr)))
    [
      ("nkeys 65535", 1, 0xFFFF);
      ("nkeys 400", 1, 400);
      ("first entry length 65535", 7 + 8, 0xFFFF);
      ("last entry length 4000", 7 + (4 * 30) + 8, 4000);
    ]

(* A node visit and a node write charge what the accesses they stand
   for charge: a visit, [Api.read_bytes] of the whole frame; a write of
   [len] bytes, [Api.write_sub] of them and the [memset] of the tail.
   Each pair runs on twin fresh systems, traced, as the isolated APP. *)
type charge_obs = {
  c_cycles : int;
  c_hits : int;
  c_misses : int;
  c_faults : int;
  c_events : (int * Telemetry.Event.t) list;
  c_page : string;
}

let observe_charges f =
  let os = mk_os () in
  let ctx = os.Minidb.Os_iface.ctx in
  let mon = ctx.Monitor.mon and cpu = ctx.Monitor.cpu in
  let p = Minidb.Pager.open_db os ~path:"/charge.db" in
  let t = Minidb.Btree.create p in
  for k = 1 to 40 do
    Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:(String.make k 'c')
  done;
  let root = Minidb.Btree.root t in
  let bus = Monitor.bus mon and tlb = Hw.Cpu.tlb cpu in
  let c0 = Hw.Cost.cycles (Monitor.cost mon) and f0 = Hw.Cpu.fault_count cpu in
  let h0 = Hw.Tlb.hits tlb and m0 = Hw.Tlb.misses tlb in
  Telemetry.Bus.clear_ring bus;
  Telemetry.Bus.set_tracing bus true;
  Monitor.run_as mon (Api.self ctx) (fun () -> f p root ctx);
  Telemetry.Bus.set_tracing bus false;
  {
    c_cycles = Hw.Cost.cycles (Monitor.cost mon) - c0;
    c_hits = Hw.Tlb.hits tlb - h0;
    c_misses = Hw.Tlb.misses tlb - m0;
    c_faults = Hw.Cpu.fault_count cpu - f0;
    c_events =
      List.map (fun (e : Telemetry.Bus.entry) -> (e.at, e.ev)) (Telemetry.Bus.events bus);
    c_page = page_bytes p root;
  }

let check_same_charges what a b =
  check_int (what ^ ": cycles") a.c_cycles b.c_cycles;
  check_int (what ^ ": TLB hits") a.c_hits b.c_hits;
  check_int (what ^ ": TLB misses") a.c_misses b.c_misses;
  check_int (what ^ ": faults") a.c_faults b.c_faults;
  check_bool (what ^ ": events") true (a.c_events = b.c_events);
  check_str (what ^ ": page") a.c_page b.c_page

let test_view_charges () =
  let page_size = Minidb.Pager.page_size in
  let visit =
    observe_charges (fun p root _ -> Minidb.Pager.with_page_view p root (fun _ -> ()))
  in
  let read =
    observe_charges (fun p root ctx ->
        Minidb.Pager.read_page p root (fun addr -> ignore (Api.read_bytes ctx addr page_size)))
  in
  check_bool "a visit is traced" true (visit.c_events <> []);
  check_same_charges "visit" read visit;
  let len = 1500 in
  let src = Bytes.init len (fun i -> Char.chr ((i * 13) land 0xFF)) in
  let write =
    observe_charges (fun p root _ ->
        Minidb.Pager.write_page_view p root ~len (fun v ->
            Minidb.Pager.set_bytes v 0 src ~pos:0 ~len))
  in
  let sub =
    observe_charges (fun p root ctx ->
        Minidb.Pager.write_page p root (fun addr ->
            Api.write_sub ctx addr src ~pos:0 ~len;
            Api.memset ctx (addr + len) (page_size - len) '\000'))
  in
  check_same_charges "write" sub write

let prop_btree_matches_map =
  QCheck.Test.make ~count:20 ~name:"btree: agrees with a reference map"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (pair (int_bound 500) (string_of_size (QCheck.Gen.int_bound 30))))
    (fun ops ->
      let t, _ = mk_tree () in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:v;
          Hashtbl.replace reference k v)
        ops;
      Hashtbl.fold
        (fun k v acc -> acc && Minidb.Btree.find t (Int64.of_int k) = Some v)
        reference true
      && Minidb.Btree.count_range t ~lo:Int64.min_int ~hi:Int64.max_int
         = Hashtbl.length reference)

let prop_btree_iter_sorted =
  QCheck.Test.make ~count:20 ~name:"btree: iteration is sorted, no duplicates"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 400) (int_bound 1000))
    (fun keys ->
      let t, _ = mk_tree () in
      List.iter (fun k -> Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:"") keys;
      let seen = ref [] in
      Minidb.Btree.iter_all t (fun k _ -> seen := k :: !seen);
      let l = List.rev !seen in
      l = List.sort_uniq Int64.compare (List.map Int64.of_int keys))

module Imap = Map.Make (Int64)

type bt_op =
  | B_insert of int * string
  | B_delete of int
  | B_find of int
  | B_range of int * int
  | B_reentrant of int * int * int
      (** a scan whose callback looks up each key and a probe key in the same tree *)
  | B_raw of int
      (** a raw [Pager.write_page] dropping the first entry of the leaf for the key *)
  | B_abort of bt_op list  (** the ops in a [Db.with_txn] that then raises *)

let rec show_bt_op = function
  | B_insert (k, p) -> Printf.sprintf "insert %d (%d B)" k (String.length p)
  | B_delete k -> Printf.sprintf "delete %d" k
  | B_find k -> Printf.sprintf "find %d" k
  | B_range (lo, hi) -> Printf.sprintf "range %d..%d" lo hi
  | B_reentrant (lo, hi, probe) ->
      Printf.sprintf "re-entrant range %d..%d probing %d" lo hi probe
  | B_raw k -> Printf.sprintf "raw write to the leaf of %d" k
  | B_abort ops -> Printf.sprintf "aborted txn [%s]" (String.concat "; " (List.map show_bt_op ops))

let bt_op_gen =
  QCheck.Gen.(
    let key = int_bound 199 in
    let payload =
      (* mostly small; a quarter up to the cap, so leaves split often *)
      frequency
        [ (3, int_bound 40); (1, int_range 500 Minidb.Btree.max_payload) ]
      >>= fun len -> map (fun c -> String.make len c) printable
    in
    let edit =
      [
        (5, map2 (fun k p -> B_insert (k, p)) key payload);
        (2, map (fun k -> B_delete k) key);
        (2, map (fun k -> B_find k) key);
        (1, map (fun k -> B_raw k) key);
      ]
    in
    frequency
      (edit
      @ [
          (1, map2 (fun lo hi -> B_range (lo, hi)) key key);
          (1, map3 (fun lo hi probe -> B_reentrant (lo, hi, probe)) key key key);
          (1, map (fun ops -> B_abort ops) (list_size (int_range 1 8) (frequency edit)));
        ]))

let in_range lo hi m = Imap.bindings (Imap.filter (fun k _ -> k >= lo && k <= hi) m)

let collect t ~lo ~hi =
  let acc = ref [] in
  Minidb.Btree.iter_range t ~lo ~hi (fun k p -> acc := (k, p) :: !acc);
  List.rev !acc

(* Drop the first entry of the leaf [key] belongs in with a raw
   [Pager.write_page], after a [find] has memoised the leaf's offsets;
   the map loses that entry too. The leaf is found through views, which
   leave the memos alone. *)
let raw_drop_first t p m key =
  let page_size = Minidb.Pager.page_size in
  let rec leaf pageno =
    match Oracle.btree_decode_node (page_bytes p pageno) with
    | Oracle.Leaf l -> (pageno, l.keys, l.payloads, l.next)
    | Oracle.Interior n ->
        leaf n.children.(Array.fold_left (fun i s -> if s <= key then i + 1 else i) 0 n.keys)
  in
  let pageno, keys, payloads, next = leaf (Minidb.Btree.root t) in
  ignore (Minidb.Btree.find t key);
  let n = Array.length keys in
  if n = 0 then m
  else begin
    let node =
      Oracle.Leaf
        { keys = Array.sub keys 1 (n - 1); payloads = Array.sub payloads 1 (n - 1); next }
    in
    let enc = Oracle.btree_encode_node node in
    Minidb.Pager.write_page p pageno (fun addr ->
        Api.write_string (Minidb.Pager.ctx p) addr
          (enc ^ String.make (page_size - String.length enc) '\000'));
    Imap.remove keys.(0) m
  end

(* Every cached frame with a valid offset memo holds a leaf whose fresh
   walk gives exactly the memoised offsets. *)
let memos_match_walks p =
  let module P = Minidb.Pager in
  List.for_all
    (fun (_, v) ->
      let n = P.memo_count v in
      n < 0
      ||
      match
        let offs = P.memo v in
        let pos = ref 7 and ok = ref (P.get_u8 v 0 = 1 && P.get_u16 v 1 = n) in
        for i = 0 to n - 1 do
          ok := !ok && offs.(i) = !pos;
          pos := !pos + 10 + P.get_u16 v (!pos + 8)
        done;
        !ok && offs.(n) = !pos
      with
      | ok -> ok
      | exception (Invalid_argument _ | Types.Error _) -> false)
    (P.cached_views p)

(* One script step against the tree and the map; false on disagreement.
   The tree lives in [db]'s pager, outside its catalog; an aborted
   transaction rolls it back to its root before the transaction. *)
let rec bt_step db t m op =
  let p = Minidb.Db.pager db in
  match op with
  | B_raw k -> (true, raw_drop_first !t p m (Int64.of_int k))
  | B_abort ops ->
      let root = Minidb.Btree.root !t in
      let agreed = ref true in
      (try
         Minidb.Db.with_txn db (fun () ->
             ignore
               (List.fold_left
                  (fun m op ->
                    let ok, m = bt_step db t m op in
                    agreed := !agreed && ok && memos_match_walks p;
                    m)
                  m ops);
             raise Exit)
       with Exit -> ());
      t := Minidb.Btree.attach p ~root;
      (!agreed, m)
  | op -> bt_query !t m op

and bt_query t m op =
  match op with
  | B_insert (k, p) ->
      let k = Int64.of_int k in
      Minidb.Btree.insert t ~key:k ~payload:p;
      (true, Imap.add k p m)
  | B_delete k ->
      let k = Int64.of_int k in
      (Minidb.Btree.delete t k = Imap.mem k m, Imap.remove k m)
  | B_find k ->
      let k = Int64.of_int k in
      (Minidb.Btree.find t k = Imap.find_opt k m, m)
  | B_range (lo, hi) ->
      let lo = Int64.of_int lo and hi = Int64.of_int hi in
      (collect t ~lo ~hi = in_range lo hi m, m)
  | B_reentrant (lo, hi, probe) ->
      let lo = Int64.of_int lo and hi = Int64.of_int hi and probe = Int64.of_int probe in
      let seen = ref [] and lookups_ok = ref true in
      Minidb.Btree.iter_range t ~lo ~hi (fun k p ->
          (* each lookup visits pages through the pager's views
             while the scan is still walking the leaf chain; the probe
             usually lands in another leaf *)
          if Minidb.Btree.find t k <> Some p || Minidb.Btree.find t probe <> Imap.find_opt probe m
          then lookups_ok := false;
          seen := (k, p) :: !seen);
      (!lookups_ok && List.rev !seen = in_range lo hi m, m)
  | B_raw _ | B_abort _ -> assert false

(* After every step the frames' offset memos must match their bytes.
   The 4-page cache (the catalog page and three tree pages) evicts and
   reuses frames all the time, re-entrant scans included. *)
let prop_btree_model =
  QCheck.Test.make ~count:30
    ~name:"btree: scripts agree with a map, pages with the reference codec"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_bt_op ops))
       QCheck.Gen.(list_size (int_range 1 150) bt_op_gen))
    (fun ops ->
      let db = Minidb.Db.open_db ~cache_pages:4 (mk_os ()) ~path:"/tree.db" in
      let p = Minidb.Db.pager db in
      let t = ref (Minidb.Btree.create p) in
      let rec go m = function
        | [] -> true
        | op :: rest ->
            let agreed, m = bt_step db t m op in
            agreed
            && memos_match_walks p
            && Minidb.Btree.count_range !t ~lo:Int64.min_int ~hi:Int64.max_int = Imap.cardinal m
            && node_pages_match_reference !t p
            && memos_match_walks p
            && go m rest
      in
      go Imap.empty ops)

(* Full-size payloads fit three to a leaf, so 1,100 keys make more leaves
   than one interior can index: the root interior splits. *)
let prop_btree_interior_split =
  QCheck.Test.make ~count:2 ~name:"btree: interior splits keep the reference codec"
    (QCheck.make QCheck.Gen.(shuffle_l (List.init 1100 Fun.id)))
    (fun keys ->
      let t, p = mk_tree () in
      let payload k = String.make Minidb.Btree.max_payload (Char.chr (65 + (k mod 26))) in
      let pages_ok = ref true in
      List.iteri
        (fun i k ->
          Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:(payload k);
          if i mod 100 = 99 then pages_ok := !pages_ok && node_pages_match_reference t p)
        keys;
      !pages_ok
      && node_pages_match_reference t p
      && Minidb.Btree.depth t >= 3
      && collect t ~lo:Int64.min_int ~hi:Int64.max_int
         = List.init 1100 (fun k -> (Int64.of_int k, payload k)))

(* [Btree.leaf_locate] against the two-walk search it replaced, on
   leaves of sorted distinct keys, probing below, between, at and above
   each key. Each leaf is stored in a pager frame by a raw write, so the
   first probe rebuilds the frame's offset memo and the rest search it. *)
let locate_pager =
  lazy
    (let p = Minidb.Pager.open_db (mk_linux_os ()) ~path:"/locate.db" in
     (p, Minidb.Pager.allocate_page p))

let prop_leaf_locate_two_walks =
  QCheck.Test.make ~count:200 ~name:"btree: leaf_locate agrees with the two-walk search"
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) (list int))
       QCheck.Gen.(
         pair (list_size (int_bound 40) (int_bound 1000)) (list_size (int_bound 40) (int_bound 60))))
    (fun (keys, lens) ->
      let keys = List.sort_uniq compare keys in
      let keys = Array.of_list (List.map (fun k -> Int64.of_int (2 * k)) keys) in
      let lens = Array.of_list (lens @ [ 0 ]) in
      let payloads =
        Array.mapi (fun i _ -> String.make lens.(i mod Array.length lens) 'p') keys
      in
      let image =
        Bytes.of_string (Oracle.btree_encode_node (Oracle.Leaf { keys; payloads; next = 0 }))
      in
      let p, pg = Lazy.force locate_pager in
      let page = Bytes.make Minidb.Pager.page_size '\000' in
      Bytes.blit image 0 page 0 (Bytes.length image);
      Minidb.Pager.write_page p pg (fun addr -> Api.write_bytes (Minidb.Pager.ctx p) addr page);
      let probes =
        -1L :: Int64.max_int :: Int64.min_int
        :: List.concat_map (fun k -> [ Int64.pred k; k; Int64.succ k ]) (Array.to_list keys)
      in
      Minidb.Pager.with_page_view p pg (fun v ->
          List.for_all
            (fun key ->
              let seek = Oracle.btree_leaf_seek image key and stop = Oracle.btree_leaf_end image in
              Minidb.Btree.leaf_locate v key
              = (seek, stop, seek < stop && Bytes.get_int64_le image seek = key))
            probes))

(* --- db ------------------------------------------------------------------------- *)

let mk_db ?protection () =
  let os = mk_os ?protection () in
  Minidb.Db.open_db os ~path:"/app.db"

let test_db_insert_get () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  let r1 = Minidb.Db.insert db t [ Minidb.Record.int 10; Minidb.Record.Text "a" ] in
  let r2 = Minidb.Db.insert db t [ Minidb.Record.int 20; Minidb.Record.Text "b" ] in
  check_bool "distinct rowids" true (r1 <> r2);
  check_bool "get r1" true (Minidb.Db.get t r1 = Some [ Minidb.Record.int 10; Minidb.Record.Text "a" ]);
  check_int "count" 2 (Minidb.Db.row_count t)

let test_db_update_delete () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  let r = Minidb.Db.insert db t [ Minidb.Record.int 1 ] in
  check_bool "update" true (Minidb.Db.update db t r [ Minidb.Record.int 2 ]);
  check_bool "updated" true (Minidb.Db.get t r = Some [ Minidb.Record.int 2 ]);
  check_bool "delete" true (Minidb.Db.delete db t r);
  check_bool "gone" true (Minidb.Db.get t r = None);
  check_bool "re-delete" false (Minidb.Db.delete db t r)

let test_db_index_range () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  for i = 1 to 200 do
    ignore (Minidb.Db.insert db t [ Minidb.Record.int (i mod 50); Minidb.Record.int i ])
  done;
  let idx = Minidb.Db.create_index db t ~col:0 ~name:"i0" in
  let hits = ref 0 in
  Minidb.Db.index_range idx t ~lo:10 ~hi:12 (fun _ row ->
      let v = Minidb.Record.to_int (List.hd row) in
      check_bool "in range" true (v >= 10 && v <= 12);
      incr hits);
  check_int "4 rows per value" 12 !hits

let test_db_index_maintained () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  let r = Minidb.Db.insert db t [ Minidb.Record.int 5 ] in
  let idx = Minidb.Db.create_index db t ~col:0 ~name:"i0" in
  ignore (Minidb.Db.update db t r [ Minidb.Record.int 7 ]);
  let at v =
    let n = ref 0 in
    Minidb.Db.index_range idx t ~lo:v ~hi:v (fun _ _ -> incr n);
    !n
  in
  check_int "old key gone" 0 (at 5);
  check_int "new key present" 1 (at 7);
  ignore (Minidb.Db.delete db t r);
  check_int "deleted from index" 0 (at 7);
  check_bool "integrity" true (Minidb.Db.integrity_check db)

let test_db_text_index () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  ignore (Minidb.Db.insert db t [ Minidb.Record.Text "apple" ]);
  ignore (Minidb.Db.insert db t [ Minidb.Record.Text "banana" ]);
  ignore (Minidb.Db.insert db t [ Minidb.Record.Text "apple" ]);
  let idx = Minidb.Db.create_index db t ~col:0 ~name:"txt" in
  let n = ref 0 in
  Minidb.Db.index_eq_text idx t "apple" (fun _ _ -> incr n);
  check_int "two apples" 2 !n;
  let m = ref 0 in
  Minidb.Db.index_eq_text idx t "cherry" (fun _ _ -> incr m);
  check_int "no cherries" 0 !m

let test_db_txn_commit_rollback () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  Minidb.Db.with_txn db (fun () ->
      for i = 1 to 50 do
        ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
      done);
  check_int "committed" 50 (Minidb.Db.row_count t);
  (* a failing transaction rolls everything back *)
  (try
     Minidb.Db.with_txn db (fun () ->
         for i = 51 to 90 do
           ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
         done;
         failwith "abort")
   with Failure _ -> ());
  let t = Minidb.Db.find_table db "t" in
  check_int "rolled back" 50 (Minidb.Db.row_count t)

let test_db_persistence () =
  let os = mk_os () in
  let db = Minidb.Db.open_db os ~path:"/persist2.db" in
  let t = Minidb.Db.create_table db "t" in
  ignore (Minidb.Db.insert db t [ Minidb.Record.Text "still here" ]);
  let _ = Minidb.Db.create_index db t ~col:0 ~name:"i" in
  Minidb.Db.close db;
  let db2 = Minidb.Db.open_db os ~path:"/persist2.db" in
  let t2 = Minidb.Db.find_table db2 "t" in
  check_int "row survived" 1 (Minidb.Db.row_count t2);
  check_bool "row content" true (Minidb.Db.get t2 1L = Some [ Minidb.Record.Text "still here" ]);
  let n = ref 0 in
  Minidb.Db.index_eq_text (Minidb.Db.find_index db2 "i") t2 "still here" (fun _ _ -> incr n);
  check_int "index survived" 1 !n

(* --- speedtest --------------------------------------------------------------------- *)

let test_speedtest_all_queries_run () =
  let os = mk_os () in
  let results =
    Minidb.Speedtest.run_all os ~path:"/speed.db" ~n:40 ~measure:(fun f -> f (); 0)
  in
  check_int "31 queries" 31 (List.length results)

let test_speedtest_on_linux_baseline () =
  let os = mk_linux_os () in
  let results =
    Minidb.Speedtest.run_all os ~path:"/speed.db" ~n:40 ~measure:(fun f -> f (); 0)
  in
  check_int "31 queries" 31 (List.length results)

let test_speedtest_heavy_uses_os_more () =
  (* The structural property behind Figure 6's groups: heavy queries
     perform more cross-cubicle calls per query than light ones. *)
  let app = app_component () in
  let sys =
    Libos.Boot.fs_stack ~protection:Types.Full ~mem_bytes:(128 * 1024 * 1024)
      ~extra:[ (app, Types.Isolated) ] ()
  in
  let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "APP")) in
  let stats = Monitor.stats sys.mon in
  let results =
    Minidb.Speedtest.run_all os ~path:"/speed.db" ~n:40 ~measure:(fun f ->
        let before = Stats.total_calls stats in
        f ();
        Stats.total_calls stats - before)
  in
  let avg group =
    let xs =
      List.filter_map
        (fun ((q : Minidb.Speedtest.query), c) -> if q.group = group then Some c else None)
        results
    in
    List.fold_left ( + ) 0 xs / List.length xs
  in
  check_bool "heavy group calls >= 2x light group" true
    (avg Minidb.Speedtest.Heavy >= 2 * avg Minidb.Speedtest.Light)

(* random transaction scripts must leave identical table contents under
   both journal modes *)
type txn_op = T_insert of int | T_update of int * int | T_delete of int | T_abort

let txn_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> T_insert v) (int_bound 1000);
        map2 (fun r v -> T_update (r, v)) (int_range 1 50) (int_bound 1000);
        map (fun r -> T_delete r) (int_range 1 50);
        return T_abort;
      ])

let run_txn_script mode script =
  let os = mk_linux_os () in
  let db = Minidb.Db.open_db ~journal_mode:mode os ~path:"/eq.db" in
  let t = Minidb.Db.create_table db "t" in
  Minidb.Db.with_txn db (fun () ->
      for i = 1 to 50 do
        ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
      done);
  List.iter
    (fun txn ->
      try
        Minidb.Db.with_txn db (fun () ->
            List.iter
              (fun op ->
                match op with
                | T_insert v -> ignore (Minidb.Db.insert db t [ Minidb.Record.int v ])
                | T_update (r, v) ->
                    ignore (Minidb.Db.update db t (Int64.of_int r) [ Minidb.Record.int v ])
                | T_delete r -> ignore (Minidb.Db.delete db t (Int64.of_int r))
                | T_abort -> failwith "abort")
              txn)
      with Failure _ -> ())
    script;
  let contents = ref [] in
  let t = Minidb.Db.find_table db "t" in
  Minidb.Db.scan t (fun rowid row -> contents := (rowid, row) :: !contents);
  Minidb.Db.close db;
  List.rev !contents

let prop_journal_modes_equivalent =
  QCheck.Test.make ~count:25
    ~name:"pager: rollback and WAL journal modes produce identical contents"
    (QCheck.make
       QCheck.Gen.(list_size (int_bound 8) (list_size (int_bound 10) txn_op_gen)))
    (fun script ->
      run_txn_script Minidb.Pager.Rollback script = run_txn_script Minidb.Pager.Wal script)

(* Random pager scripts against a reference LRU list: after every step
   the cached pages and the hit/miss/eviction counters must be the
   model's, and every read must see the value last written (committed,
   or written by the open transaction). *)
type pg_op =
  | P_read of int
  | P_write of int
  | P_alloc
  | P_pin of int * pg_op list  (** the page stays pinned while the nested ops run *)
  | P_begin
  | P_commit
  | P_rollback

let rec show_pg_op = function
  | P_read k -> Printf.sprintf "read %d" k
  | P_write k -> Printf.sprintf "write %d" k
  | P_alloc -> "alloc"
  | P_pin (k, l) -> Printf.sprintf "pin %d [%s]" k (String.concat "; " (List.map show_pg_op l))
  | P_begin -> "begin"
  | P_commit -> "commit"
  | P_rollback -> "rollback"

(* Page operands are taken modulo the page count when they run. *)
let pg_op_gen =
  QCheck.Gen.(
    let page = int_bound 63 in
    let rec nested depth =
      frequency
        ([ (4, map (fun k -> P_read k) page);
           (3, map (fun k -> P_write k) page);
           (1, return P_alloc) ]
        @
        if depth = 3 then []
        else
          [ (1, map2 (fun k l -> P_pin (k, l)) page (list_size (int_bound 4) (nested (depth + 1)))) ])
    in
    frequency [ (8, nested 0); (1, return P_begin); (1, return P_commit); (1, return P_rollback) ])

module Lru_model = struct
  type t = {
    cap : int;
    wal : bool;
    mutable lru : int list;  (* cached pages, hottest first *)
    mutable dirty : int list;
    mutable pinned : int list;  (* one entry per pin *)
    mutable buffers : int;
    mutable spare : int;
    mutable npages : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable data : (int * int) list;  (* page -> value, newest first *)
    mutable txn : (int * (int * int) list) option;  (* page count and data at begin *)
    mutable journal : int list;  (* pages with a journal record *)
    mutable txn_allocated : int list;
    mutable spilled : bool;  (* WAL: a dirty page was written back inside the transaction *)
  }

  let create ~cap ~wal =
    { cap; wal; lru = []; dirty = []; pinned = []; buffers = 0; spare = 0; npages = 0; hits = 0;
      misses = 0; evictions = 0; data = []; txn = None; journal = []; txn_allocated = [];
      spilled = false }

  let without p = List.filter (( <> ) p)
  let rec remove_one p = function [] -> [] | q :: l -> if p = q then l else q :: remove_one p l

  let acquire m =
    if m.spare > 0 then m.spare <- m.spare - 1
    else if m.buffers < m.cap then m.buffers <- m.buffers + 1
    else begin
      let victim = List.find (fun p -> not (List.mem p m.pinned)) (List.rev m.lru) in
      if m.wal && m.txn <> None && List.mem victim m.dirty then m.spilled <- true;
      m.lru <- without victim m.lru;
      m.dirty <- without victim m.dirty;
      m.evictions <- m.evictions + 1
    end

  let load m p =
    if List.mem p m.lru then m.hits <- m.hits + 1
    else begin
      m.misses <- m.misses + 1;
      acquire m
    end;
    m.lru <- p :: without p m.lru

  let value m p = Option.value (List.assoc_opt p m.data) ~default:0

  let write m p v =
    load m p;
    if not (List.mem p m.dirty) then m.dirty <- p :: m.dirty;
    if (not m.wal) && m.txn <> None && not (List.mem p (m.journal @ m.txn_allocated)) then
      m.journal <- p :: m.journal;
    m.data <- (p, v) :: m.data

  let alloc m =
    let p = m.npages in
    m.npages <- p + 1;
    acquire m;
    m.lru <- p :: m.lru;
    m.dirty <- p :: m.dirty;
    if m.txn <> None then m.txn_allocated <- p :: m.txn_allocated;
    m.data <- (p, 0) :: m.data

  let begin_txn m =
    m.dirty <- [];
    m.txn <- Some (m.npages, m.data);
    m.journal <- [];
    m.txn_allocated <- [];
    m.spilled <- false

  let commit m =
    m.dirty <- [];
    m.txn <- None

  let rollback m =
    let npages, data = Option.get m.txn in
    let dropped p =
      List.mem p m.dirty || List.mem p m.journal || (m.spilled && not (List.mem p m.pinned))
      || p >= npages
    in
    let gone = List.filter dropped m.lru in
    m.lru <- List.filter (fun p -> not (dropped p)) m.lru;
    m.spare <- m.spare + List.length gone;
    m.dirty <- [];
    m.npages <- npages;
    m.data <- data;
    m.txn <- None
end

let run_pager_script ~cache mode ops =
  let os = mk_linux_os () in
  let p = Minidb.Pager.open_db ~cache_pages:cache ~journal_mode:mode os ~path:"/lru.db" in
  let m = Lru_model.create ~cap:cache ~wal:(mode = Minidb.Pager.Wal) in
  let next = ref 0 in
  let agrees () =
    let st = Minidb.Pager.stats p in
    Minidb.Pager.cached_pages p = List.sort compare m.lru
    && (st.hits, st.misses, st.evictions) = (m.hits, m.misses, m.evictions)
  in
  let rec step op =
    let page k f = if m.npages = 0 then true else f (k mod m.npages) in
    let ok =
      match op with
      | P_read k ->
          page k (fun pg ->
              Lru_model.load m pg;
              Minidb.Pager.read_page p pg (Api.read_u32 os.ctx) = Lru_model.value m pg)
      | P_write k ->
          page k (fun pg ->
              incr next;
              Lru_model.write m pg !next;
              Minidb.Pager.write_page p pg (fun a -> Api.write_u32 os.ctx a !next);
              true)
      | P_alloc ->
          Lru_model.alloc m;
          Minidb.Pager.allocate_page p = m.npages - 1
      | P_pin (k, l) ->
          page k (fun pg ->
              Lru_model.load m pg;
              Minidb.Pager.read_page p pg (fun _ ->
                  m.pinned <- pg :: m.pinned;
                  let ok = List.for_all step l in
                  m.pinned <- Lru_model.remove_one pg m.pinned;
                  ok))
      | P_begin ->
          if m.txn = None then begin
            Lru_model.begin_txn m;
            Minidb.Pager.flush p;
            Minidb.Pager.begin_txn p
          end;
          true
      | P_commit ->
          if m.txn <> None then begin
            Lru_model.commit m;
            Minidb.Pager.commit p
          end;
          true
      | P_rollback ->
          if m.txn <> None then begin
            Lru_model.rollback m;
            Minidb.Pager.rollback p
          end;
          true
    in
    ok && agrees ()
  in
  List.for_all step ops

let prop_pager_lru_model =
  QCheck.Test.make ~count:60
    ~name:"pager: scripts agree with a reference LRU list in both journal modes"
    (QCheck.make
       ~print:(fun (cache, ops) ->
         Printf.sprintf "cache %d: %s" cache (String.concat "; " (List.map show_pg_op ops)))
       QCheck.Gen.(pair (int_range 4 8) (list_size (int_range 1 120) pg_op_gen)))
    (fun (cache, ops) ->
      let ops = List.init 10 (fun _ -> P_alloc) @ ops in
      run_pager_script ~cache Minidb.Pager.Rollback ops
      && run_pager_script ~cache Minidb.Pager.Wal ops)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_record_roundtrip;
      prop_btree_matches_map;
      prop_btree_iter_sorted;
      prop_btree_model;
      prop_btree_interior_split;
      prop_leaf_locate_two_walks;
      prop_journal_modes_equivalent;
      prop_pager_lru_model;
    ]

let () =
  Alcotest.run "minidb"
    [
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "empty/errors" `Quick test_record_empty_and_errors;
          Alcotest.test_case "compare" `Quick test_record_compare;
        ] );
      ( "pager",
        [
          Alcotest.test_case "basic rw" `Quick test_pager_basic_rw;
          Alcotest.test_case "persistence" `Quick test_pager_persistence;
          Alcotest.test_case "eviction" `Quick test_pager_eviction;
          Alcotest.test_case "lru order" `Quick test_pager_lru_order;
          Alcotest.test_case "commit" `Quick test_pager_commit;
          Alcotest.test_case "rollback" `Quick test_pager_rollback;
          Alcotest.test_case "rollback new pages" `Quick test_pager_rollback_drops_new_pages;
          Alcotest.test_case "rollback spilled" `Quick test_pager_rollback_spilled_pages;
          Alcotest.test_case "rollback uncaches" `Quick test_pager_rollback_uncaches_dropped_pages;
          Alcotest.test_case "nested txn" `Quick test_pager_nested_txn_rejected;
          Alcotest.test_case "close frees frames" `Quick test_pager_close_frees_frames;
        ] );
      ( "wal",
        [
          Alcotest.test_case "commit visible" `Quick test_wal_commit_visible;
          Alcotest.test_case "rollback" `Quick test_wal_rollback;
          Alcotest.test_case "checkpoint+recovery" `Quick test_wal_checkpoint_and_recovery;
          Alcotest.test_case "engine end-to-end" `Quick test_wal_db_engine_end_to_end;
        ] );
      ( "btree",
        [
          Alcotest.test_case "insert/find" `Quick test_btree_insert_find;
          Alcotest.test_case "replace" `Quick test_btree_replace;
          Alcotest.test_case "splits" `Quick test_btree_many_keys_split;
          Alcotest.test_case "range order" `Quick test_btree_range_order;
          Alcotest.test_case "delete" `Quick test_btree_delete;
          Alcotest.test_case "min/max" `Quick test_btree_min_max;
          Alcotest.test_case "payload cap" `Quick test_btree_payload_cap;
          Alcotest.test_case "uneven split" `Quick test_btree_uneven_split;
          Alcotest.test_case "corrupt leaf raises" `Quick test_btree_corrupt_leaf_raises;
          Alcotest.test_case "view charges" `Quick test_view_charges;
        ] );
      ( "db",
        [
          Alcotest.test_case "insert/get" `Quick test_db_insert_get;
          Alcotest.test_case "update/delete" `Quick test_db_update_delete;
          Alcotest.test_case "index range" `Quick test_db_index_range;
          Alcotest.test_case "index maintained" `Quick test_db_index_maintained;
          Alcotest.test_case "text index" `Quick test_db_text_index;
          Alcotest.test_case "txn" `Quick test_db_txn_commit_rollback;
          Alcotest.test_case "persistence" `Quick test_db_persistence;
        ] );
      ( "speedtest",
        [
          Alcotest.test_case "all queries (cubicleos)" `Slow test_speedtest_all_queries_run;
          Alcotest.test_case "all queries (linux)" `Quick test_speedtest_on_linux_baseline;
          Alcotest.test_case "heavy vs light os usage" `Slow test_speedtest_heavy_uses_os_more;
        ] );
      ("properties", qsuite);
    ]
