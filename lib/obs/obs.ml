(* Observability sink: bounded event ring + metrics registry.

   Cost discipline: [incr] is a branch plus an int store and never
   allocates, so producers call it unconditionally.  Anything that takes a
   float or builds an event payload is gated at the call site (see the mli)
   because the native compiler boxes floats crossing a non-inlined call. *)

type level = Off | Metrics | Full

type kind =
  | Phase_enter of { id : int; name : string }
  | Phase_exit of { id : int; ipc : float }
  | Hotspot_promoted of { id : int; name : string }
  | Recompile of { id : int }
  | Trial_start of { id : int; cfg : string }
  | Trial_result of { id : int; cfg : string; energy : float; ipc : float }
  | Burn_in of { id : int; left : int }
  | Tuning_finished of { id : int; best : string; tested : int }
  | Drift_sample of { id : int; ipc : float; ref_ipc : float }
  | Retune of { id : int; drift : float }
  | Quarantine of { id : int }
  | Cu_failed of { cu : string }
  | Cu_recovered of { cu : string }
  | Reconfig of { cu : string; label : string; flushed : int }
  | Fault of { cu : string; what : string }
  | Ckpt_capture of { bytes : int }
  | Ckpt_restore of { instrs : int }
  | Job_state of { id : int; state : string }
  | Io_fault of { op : string; path : string }
  | Phase_splice of { id : int; instrs : int }

type event = { ts : int; kind : kind }

let kind_name = function
  | Phase_enter _ -> "phase_enter"
  | Phase_exit _ -> "phase_exit"
  | Hotspot_promoted _ -> "hotspot_promoted"
  | Recompile _ -> "recompile"
  | Trial_start _ -> "trial_start"
  | Trial_result _ -> "trial_result"
  | Burn_in _ -> "burn_in"
  | Tuning_finished _ -> "tuning_finished"
  | Drift_sample _ -> "drift_sample"
  | Retune _ -> "retune"
  | Quarantine _ -> "quarantine"
  | Cu_failed _ -> "cu_failed"
  | Cu_recovered _ -> "cu_recovered"
  | Reconfig _ -> "reconfig"
  | Fault _ -> "fault"
  | Ckpt_capture _ -> "ckpt_capture"
  | Ckpt_restore _ -> "ckpt_restore"
  | Job_state _ -> "job_state"
  | Io_fault _ -> "io_fault"
  | Phase_splice _ -> "phase_splice"

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_bounds : float array;
  h_counts : int array; (* length = bounds + 1; last bucket is overflow *)
  mutable h_total : int;
  mutable h_sum : float;
}

type t = {
  lvl : level;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, histogram) Hashtbl.t;
  cap : int;
  buf : event array; (* ring; length 0 unless lvl = Full *)
  mutable start : int;
  mutable len : int;
  mutable n_dropped : int;
  mutable clock : unit -> int;
}

let dummy_event = { ts = 0; kind = Recompile { id = -1 } }

let create ?(capacity = 65536) lvl =
  let cap = if lvl = Full then max 1 capacity else 0 in
  {
    lvl;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
    cap;
    buf = Array.make cap dummy_event;
    start = 0;
    len = 0;
    n_dropped = 0;
    clock = (fun () -> 0);
  }

let null = create Off
let level t = t.lvl
let enabled t = t.lvl <> Off
let tracing t = t.lvl = Full
let set_clock t f = if t.lvl <> Off then t.clock <- f
let now t = t.clock ()

(* -- registry ------------------------------------------------------- *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0 } in
      if enabled t then Hashtbl.add t.counters name c;
      c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_value = 0.0 } in
      if enabled t then Hashtbl.add t.gauges name g;
      g

let check_bounds name bounds =
  if Array.length bounds = 0 then
    invalid_arg (Printf.sprintf "Obs.histogram %s: empty bounds" name);
  for i = 1 to Array.length bounds - 1 do
    if not (bounds.(i) > bounds.(i - 1)) then
      invalid_arg
        (Printf.sprintf "Obs.histogram %s: bounds not strictly increasing" name)
  done

let histogram t name ~bounds =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      check_bounds name bounds;
      let h =
        {
          h_name = name;
          h_bounds = Array.copy bounds;
          h_counts = Array.make (Array.length bounds + 1) 0;
          h_total = 0;
          h_sum = 0.0;
        }
      in
      if enabled t then Hashtbl.add t.hists name h;
      h

let incr t c = if t.lvl <> Off then c.c_value <- c.c_value + 1
let add t c n = if t.lvl <> Off then c.c_value <- c.c_value + n
let set_gauge t g v = if t.lvl <> Off then g.g_value <- v

let bucket_of bounds v =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && v > bounds.(!i) do
    i := !i + 1
  done;
  !i

let observe t h v =
  if t.lvl <> Off then begin
    let b = bucket_of h.h_bounds v in
    h.h_counts.(b) <- h.h_counts.(b) + 1;
    h.h_total <- h.h_total + 1;
    h.h_sum <- h.h_sum +. v
  end

let counter_value c = c.c_value
let gauge_value g = g.g_value

type metric =
  | M_counter of string * int
  | M_gauge of string * float
  | M_histogram of string * float array * int array * int * float

let metric_name = function
  | M_counter (n, _) | M_gauge (n, _) | M_histogram (n, _, _, _, _) -> n

let metrics t =
  let acc = ref [] in
  Hashtbl.iter (fun _ c -> acc := M_counter (c.c_name, c.c_value) :: !acc) t.counters;
  Hashtbl.iter (fun _ g -> acc := M_gauge (g.g_name, g.g_value) :: !acc) t.gauges;
  Hashtbl.iter
    (fun _ h ->
      acc :=
        M_histogram
          (h.h_name, Array.copy h.h_bounds, Array.copy h.h_counts, h.h_total, h.h_sum)
        :: !acc)
    t.hists;
  List.sort (fun a b -> compare (metric_name a) (metric_name b)) !acc

(* -- event ring ----------------------------------------------------- *)

let push t ev =
  if t.len < t.cap then begin
    t.buf.((t.start + t.len) mod t.cap) <- ev;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.start) <- ev;
    t.start <- (t.start + 1) mod t.cap;
    t.n_dropped <- t.n_dropped + 1
  end

let record t kind = if t.lvl = Full then push t { ts = t.clock (); kind }
let event_count t = t.len
let dropped t = t.n_dropped

let events t =
  List.init t.len (fun i -> t.buf.((t.start + i) mod t.cap))

(* -- capture / restore ---------------------------------------------- *)

type metrics_state = {
  ms_counters : (string * int) array;
  ms_gauges : (string * float) array;
  ms_hists : (string * float array * int array * int * float) array;
}

type state = {
  s_metrics : metrics_state;
  s_events : event array;
  s_dropped : int;
}

let sorted_array_of of_entry tbl =
  let acc = ref [] in
  Hashtbl.iter (fun _ v -> acc := of_entry v :: !acc) tbl;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let capture t =
  if t.lvl = Off then None
  else
    Some
      {
        s_metrics =
          {
            ms_counters = sorted_array_of (fun c -> (c.c_name, c.c_value)) t.counters;
            ms_gauges = sorted_array_of (fun g -> (g.g_name, g.g_value)) t.gauges;
            ms_hists =
              sorted_array_of
                (fun h ->
                  ( h.h_name,
                    Array.copy h.h_bounds,
                    Array.copy h.h_counts,
                    h.h_total,
                    h.h_sum ))
                t.hists;
          };
        s_events = Array.init t.len (fun i -> t.buf.((t.start + i) mod t.cap));
        s_dropped = t.n_dropped;
      }

let restore t s =
  match s with
  | None -> ()
  | Some _ when t.lvl = Off -> ()
  | Some s ->
      Array.iter
        (fun (name, v) -> (counter t name).c_value <- v)
        s.s_metrics.ms_counters;
      Array.iter
        (fun (name, v) -> (gauge t name).g_value <- v)
        s.s_metrics.ms_gauges;
      Array.iter
        (fun (name, bounds, counts, total, sum) ->
          let h = histogram t name ~bounds in
          let n = min (Array.length counts) (Array.length h.h_counts) in
          Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
          Array.blit counts 0 h.h_counts 0 n;
          h.h_total <- total;
          h.h_sum <- sum)
        s.s_metrics.ms_hists;
      if t.lvl = Full then begin
        t.start <- 0;
        t.len <- 0;
        t.n_dropped <- s.s_dropped;
        Array.iter (fun ev -> push t ev) s.s_events
      end
