type ctx = Monitor.ctx

let window_init (c : ctx) ~klass = Monitor.window_init c.mon c.self ~klass
let window_table_extend (c : ctx) ~klass = Monitor.window_table_extend c.mon c.self ~klass
let window_add (c : ctx) ?perm wid ~ptr ~size =
  Monitor.window_add c.mon c.self ?perm wid ~ptr ~size

let window_remove (c : ctx) wid ~ptr = Monitor.window_remove c.mon c.self wid ~ptr
let window_downgrade (c : ctx) wid ~ptr = Monitor.window_downgrade c.mon c.self wid ~ptr
let window_open (c : ctx) wid other = Monitor.window_open c.mon c.self wid other
let window_close (c : ctx) wid other = Monitor.window_close c.mon c.self wid other
let window_close_all (c : ctx) wid = Monitor.window_close_all c.mon c.self wid
let window_destroy (c : ctx) wid = Monitor.window_destroy c.mon c.self wid

let window_add_ranges (c : ctx) ?perm wid ranges =
  Monitor.window_add_ranges c.mon c.self ?perm wid ranges
let window_open_many (c : ctx) wid peers = Monitor.window_open_many c.mon c.self wid peers

let window_forward (c : ctx) ~owner wid other =
  Monitor.window_forward c.mon c.self ~owner wid other
type import = Monitor.import

let import = Monitor.import
let call (c : ctx) imp args = Monitor.call c.mon ~caller:c.self imp args
let cid_of (c : ctx) name = Monitor.lookup_cubicle c.mon name
let self (c : ctx) = c.self
let malloc (c : ctx) ?align size = Monitor.malloc c.mon c.self ?align size
let free (c : ctx) addr = Monitor.free c.mon c.self addr
let alloc_pages (c : ctx) n ~kind = Monitor.alloc_pages c.mon c.self n ~kind
let malloc_page_aligned (c : ctx) size = malloc c ~align:Hw.Addr.page_size size

(* Observation hook for the CubiCheck replay plane: each checked access
   reports the pages it touches that belong to another cubicle
   (tracing-gated, cost-free — see Monitor.observe_access). The access
   itself still goes through the machine's MPK checks below; the hook
   only makes non-faulting cross-owner accesses (open windows, stale
   tags after a causal-revocation close) visible to offline analysis. *)
let[@inline] obs (c : ctx) addr len access = Monitor.observe_access c.mon ~addr ~len ~access

let read_string (c : ctx) addr len =
  obs c addr len Telemetry.Event.Read;
  Bytes.to_string (Hw.Cpu.read_bytes c.cpu addr len)

let write_string (c : ctx) addr s =
  obs c addr (String.length s) Telemetry.Event.Write;
  Hw.Cpu.write_string c.cpu addr s

let read_bytes (c : ctx) addr len =
  obs c addr len Telemetry.Event.Read;
  Hw.Cpu.read_bytes c.cpu addr len

let write_bytes (c : ctx) addr b =
  obs c addr (Bytes.length b) Telemetry.Event.Write;
  Hw.Cpu.write_bytes c.cpu addr b

let read_into (c : ctx) addr buf ~pos ~len =
  obs c addr len Telemetry.Event.Read;
  Hw.Cpu.read_into c.cpu addr buf ~pos ~len

let write_sub (c : ctx) addr buf ~pos ~len =
  obs c addr len Telemetry.Event.Write;
  Hw.Cpu.write_sub c.cpu addr buf ~pos ~len

let check_read (c : ctx) addr len =
  obs c addr len Telemetry.Event.Read;
  Hw.Cpu.check_read c.cpu addr len

let check_write (c : ctx) addr len =
  obs c addr len Telemetry.Event.Write;
  Hw.Cpu.check_write c.cpu addr len

let read_u8 (c : ctx) addr =
  obs c addr 1 Telemetry.Event.Read;
  Hw.Cpu.read_u8 c.cpu addr

let write_u8 (c : ctx) addr v =
  obs c addr 1 Telemetry.Event.Write;
  Hw.Cpu.write_u8 c.cpu addr v

(* Traced, each store reports its own access, as the loop does. *)
let store_run (c : ctx) addr buf ~pos ~len =
  if (Hw.Cpu.bus c.cpu).Telemetry.Bus.tracing then begin
    if pos < 0 || len < 0 || pos > Bytes.length buf - len then
      invalid_arg "Api.store_run: host buffer range out of bounds";
    for j = 0 to len - 1 do
      write_u8 c (addr + j) (Bytes.get_uint8 buf (pos + j))
    done
  end
  else Hw.Cpu.store_run c.cpu addr buf ~pos ~len

let read_u16 (c : ctx) addr =
  obs c addr 2 Telemetry.Event.Read;
  Hw.Cpu.read_u16 c.cpu addr

let write_u16 (c : ctx) addr v =
  obs c addr 2 Telemetry.Event.Write;
  Hw.Cpu.write_u16 c.cpu addr v

let read_u32 (c : ctx) addr =
  obs c addr 4 Telemetry.Event.Read;
  Hw.Cpu.read_u32 c.cpu addr

let write_u32 (c : ctx) addr v =
  obs c addr 4 Telemetry.Event.Write;
  Hw.Cpu.write_u32 c.cpu addr v

let read_i64 (c : ctx) addr =
  obs c addr 8 Telemetry.Event.Read;
  Hw.Cpu.read_i64 c.cpu addr

let write_i64 (c : ctx) addr v =
  obs c addr 8 Telemetry.Event.Write;
  Hw.Cpu.write_i64 c.cpu addr v

let memcpy (c : ctx) ~dst ~src ~len =
  obs c src len Telemetry.Event.Read;
  obs c dst len Telemetry.Event.Write;
  Hw.Cpu.memcpy c.cpu ~dst ~src ~len

let memset (c : ctx) addr len ch =
  obs c addr len Telemetry.Event.Write;
  Hw.Cpu.memset c.cpu addr len ch
let window_open_dedicated (c : ctx) wid other =
  Monitor.window_open_dedicated c.mon c.self wid other

let window_close_dedicated (c : ctx) wid other =
  Monitor.window_close_dedicated c.mon c.self wid other
