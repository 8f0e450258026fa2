(* Timing, tracing and reporting shared by every workload.

   Spans are recorded only by this benchmark, around its calls into the
   public functions of each lib/ layer; the program's own Telemetry sink
   stays off (when on, the simulator emits one event per instruction).
   With tracing off, [span] is one boolean load and a call. *)

let now = Unix.gettimeofday

(* --- order statistics ------------------------------------------------------ *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- spans ------------------------------------------------------------------ *)

(* Set by the main domain between phases, before any pool domain is
   spawned; worker domains only read them. *)
let tracing = ref false
let phase = ref "setup"

type span = {
  id : int;
  parent : int;  (** 0 = a root in its domain *)
  layer : string;
  name : string;
  sp_phase : string;
  dur_ms : float;
}

let spans : span list ref = ref []
let spans_mu = Mutex.create ()
let next_id = Atomic.make 1
let stack : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

(* Time [f] as one call into [layer]; nested spans are its children. *)
let span layer name f =
  if not !tracing then f ()
  else begin
    let st = Domain.DLS.get stack in
    let parent = match !st with p :: _ -> p | [] -> 0 in
    let id = Atomic.fetch_and_add next_id 1 in
    let sp_phase = !phase in
    st := id :: !st;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let dur_ms = (now () -. t0) *. 1000.0 in
        st := List.tl !st;
        Mutex.protect spans_mu (fun () ->
            spans := { id; parent; layer; name; sp_phase; dur_ms } :: !spans))
      f
  end

(* Run [f] with spans recorded when [on]; otherwise leave the flag
   alone, so untraced clients in other domains never write it. *)
let traced on f =
  if not on then f ()
  else begin
    tracing := true;
    Fun.protect ~finally:(fun () -> tracing := false) f
  end

let reset_spans () = spans := []

(* Duration of each span minus the part its children cover. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (s.dur_ms +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    !spans;
  List.map (fun s -> (s, s.dur_ms -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id))) !spans

(* Total duration of the spans named [layer.name] in one phase. *)
let span_total ~phase layer name =
  List.fold_left
    (fun a s -> if s.layer = layer && s.name = name && s.sp_phase = phase then a +. s.dur_ms else a)
    0.0 !spans

(* Self time summed per (layer, name) or per layer, for one phase.  The
   "harness" layer holds the roots, so its self time is the part of an
   operation no layer span covers. *)
let self_by key ph =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      if s.sp_phase = ph then
        Hashtbl.replace tbl (key s) (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl (key s))))
    (self_times ());
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* --- metrics ------------------------------------------------------------ *)

(* Per-layer values a run reports beside the span-derived times; a
   metric never set reads 0, meaning the layer did no such work. *)
let metrics : (string, float) Hashtbl.t = Hashtbl.create 64

let set name v = Hashtbl.replace metrics name v
let seti name v = set name (Float.of_int v)

(* --- one run's outcome ------------------------------------------------ *)

(* Findings of one run, from any domain: failures are counted and
   printed. *)
type log = { mu : Mutex.t; failures : int Atomic.t; mutable notes : string list }

let new_log () = { mu = Mutex.create (); failures = Atomic.make 0; notes = [] }
let note log msg = Mutex.protect log.mu (fun () -> log.notes <- msg :: log.notes)

let fail log msg =
  Atomic.incr log.failures;
  note log ("FAIL " ^ msg)

type result = {
  setup_s : float list;  (** each untraced set-up *)
  op_ms : float list;  (** untraced operations *)
  traced_ms : float list;  (** traced operations (trace runs only) *)
  attempted : int;
  failed : int;
  counts : string;  (** exact counts: must repeat between runs and seeds *)
  fingerprint : string;  (** outputs: equal iff bit-identical *)
  notes : string list;  (** findings printed before the result, failures first *)
}

(* --- measurement loops --------------------------------------------------- *)

(* Domains every untraced workload keeps busy: the cores of the two-core
   host the benchmark was built on.  Fixed, so runs on larger hosts
   measure the same load. *)
let domains = 2

(* A closed loop of [clients] clients, one domain each: client c runs
   [op i] for i = c, c + clients, ...  Its first [warm_up] operations
   run before its clock starts (the heap grows to its working size) and
   come back flagged [true]; then it runs until [seconds] have passed
   and it ran [min_ops] timed operations.  [op] must not raise.
   Results come back in input order, each with its warm-up flag. *)
let closed_loop ?(warm_up = 0) ~clients ~seconds ~min_ops op =
  let client c () =
    let rec go start k acc =
      if k - warm_up >= min_ops && now () -. start >= seconds then acc
      else
        let i = c + (k * clients) in
        let r = (k < warm_up, op i) in
        go (if k + 1 = warm_up then now () else start) (k + 1) ((i, r) :: acc)
    in
    go (now ()) 0 []
  in
  let others = List.init (clients - 1) (fun c -> Domain.spawn (client (c + 1))) in
  let mine = client 0 () in
  List.concat (mine :: List.map Domain.join others)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Set-up timings: one traced set-up, or at least three untraced ones
   and more while they take under two seconds in all (a set-up of a few
   milliseconds needs more samples for a steady median).  Returns the
   seconds of each set-up and the last one's value; each earlier value
   is dropped before the next set-up starts, so peak memory holds one
   set-up however many ran. *)
let repeat_setup ~trace f =
  let start = now () in
  let last = ref None in
  let rec go n times =
    if (trace && n >= 1) || ((not trace) && n >= 3 && (n >= 25 || now () -. start >= 2.0)) then
      (List.rev times, Option.get !last)
    else begin
      last := None;
      Gc.full_major ();
      let t0 = now () in
      last := Some (f ());
      go (n + 1) ((now () -. t0) :: times)
    end
  in
  go 0 []

(* After the timed operations of an untraced run, as many set-ups again
   as ran before them, each value dropped as soon as it is timed: with
   those before, the set-up samples then come from both sides of the
   operations, not from one stretch of the host's varying speed.  The
   caller's own set-up value must be dead by then, so memory holds one. *)
let setups_after ~trace before f =
  if trace then []
  else
    List.map
      (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        ignore (Sys.opaque_identity (f ()));
        now () -. t0)
      before

(* Median wall time of [reps] calls of [f], in microseconds, after one
   untimed warm-up call. *)
let probe_us ?(reps = 5) f =
  ignore (Sys.opaque_identity (f ()));
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         (now () -. t0) *. 1e6))

(* A fixed integer loop, timed before and after each run, so host
   drift shows beside the numbers. *)
let spin_ms () =
  let once () =
    let t0 = now () in
    let x = ref 0 in
    for i = 1 to 20_000_000 do
      x := (!x + i) land 0xFFFFFF
    done;
    ignore (Sys.opaque_identity !x);
    (now () -. t0) *. 1000.0
  in
  median (List.init 5 (fun _ -> once ()))

(* Peak resident set of this process, from the kernel's own counter. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              Float.of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* --- provenance -------------------------------------------------------- *)

let read_file path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None)
  | exception Sys_error _ -> None

(* The commit checked out in the working directory, read from .git
   directly (a benchmark checkout may not be a git repository). *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read_file (Filename.concat ".git" r) with
    | Some rev -> rev
    | None -> "unknown (" ^ r ^ ")")
  | Some rev -> rev
