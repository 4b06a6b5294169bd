(* Parallel-harness determinism: the whole point of the pool design is that
   [--jobs N] changes wall-clock time and nothing else.  Rendered experiment
   tables and the float aggregates feeding them must be byte-identical
   between a sequential context and a 4-way parallel one, across several
   seeds (4 jobs on any core count still exercises true interleaving — the
   domains are simply oversubscribed). *)

module E = Ace_harness.Experiments
module Scheme = Ace_harness.Scheme
module Table = Ace_util.Table

let mini_workloads =
  [ Ace_workloads.Compress.workload; Ace_workloads.Mtrt.workload ]

let with_ctx ~seed ~jobs f =
  let ctx = E.create ~scale:0.1 ~seed ~jobs ~workloads:mini_workloads () in
  Fun.protect ~finally:(fun () -> E.shutdown ctx) (fun () -> f ctx)

let with_pair ~seed f =
  with_ctx ~seed ~jobs:1 (fun seq -> with_ctx ~seed ~jobs:4 (fun par -> f seq par))

let seeds = [ 1; 7; 42 ]

let test_tables_bit_identical () =
  List.iter
    (fun seed ->
      with_pair ~seed (fun seq par ->
          List.iter
            (fun (name, f) ->
              Alcotest.(check string)
                (Printf.sprintf "%s, seed %d: -j1 = -j4" name seed)
                (Table.render (f seq))
                (Table.render (f par)))
            [
              ("fig1", E.fig1);
              ("fig3", E.fig3);
              ("fig4", E.fig4);
              ("table4", E.table4);
            ]))
    seeds

let test_aggregates_bit_identical () =
  (* Exact float equality, not approximate: the parallel path must produce
     the same bits, not merely close numbers. *)
  List.iter
    (fun seed ->
      with_pair ~seed (fun seq par ->
          List.iter
            (fun scheme ->
              let name = Scheme.name scheme in
              let e1l1, e1l2 = E.average_energy_reduction seq scheme in
              let e4l1, e4l2 = E.average_energy_reduction par scheme in
              Alcotest.(check (float 0.0))
                (Printf.sprintf "L1D energy reduction, %s, seed %d" name seed)
                e1l1 e4l1;
              Alcotest.(check (float 0.0))
                (Printf.sprintf "L2 energy reduction, %s, seed %d" name seed)
                e1l2 e4l2;
              Alcotest.(check (float 0.0))
                (Printf.sprintf "slowdown, %s, seed %d" name seed)
                (E.average_slowdown seq scheme)
                (E.average_slowdown par scheme);
              List.iter
                (fun w ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "per-workload slowdown, %s/%s, seed %d"
                       w.Ace_workloads.Workload.name name seed)
                    (E.slowdown seq w scheme) (E.slowdown par w scheme))
                mini_workloads)
            [ Scheme.Hotspot; Scheme.Bbv ]))
    seeds

let test_stability_shares_parent_pool () =
  (* stability builds per-seed sub-contexts internally; with jobs > 1 they
     borrow the parent pool.  Output must still match sequential exactly. *)
  with_pair ~seed:1 (fun seq par ->
      Alcotest.(check string)
        "stability: -j1 = -j4"
        (Table.render (E.stability seq))
        (Table.render (E.stability par)))

(* The soak table at scale 0.1, seed 1, pinned byte for byte: a change to
   the crash harness that shifts a kill point or a recovery count shows
   here, not only as a j1/j4 difference. *)
let pinned_soak =
  "+-----------+----------+-------+----------+-----------+-----------+--------------+\n" ^
  "| Benchmark | Scheme   | Kills | Restarts | Fallbacks | Corrupted | Tables match |\n" ^
  "+-----------+----------+-------+----------+-----------+-----------+--------------+\n" ^
  "| compress  | baseline |     4 |        0 |         0 |         0 | yes          |\n" ^
  "| compress  | hotspot  |     4 |        0 |         0 |         0 | yes          |\n" ^
  "| compress  | bbv      |     4 |        2 |         0 |         0 | yes          |\n" ^
  "+-----------+----------+-------+----------+-----------+-----------+--------------+\n"

let test_soak_parallel_identical () =
  with_pair ~seed:1 (fun seq par ->
      let rendered = Table.render (fst (E.soak ~cycles:4 seq)) in
      Alcotest.(check string) "soak: pinned table" pinned_soak rendered;
      Alcotest.(check string)
        "soak: -j1 = -j4" rendered
        (Table.render (fst (E.soak ~cycles:4 par))))

let test_create_rejects_bad_jobs () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs = %d rejected" jobs)
        (Invalid_argument
           (Printf.sprintf "Experiments.create: jobs must be >= 1 (got %d)" jobs))
        (fun () -> ignore (E.create ~jobs ())))
    [ 0; -3 ]

let test_jobs_accessor () =
  with_ctx ~seed:1 ~jobs:1 (fun c -> Alcotest.(check int) "jobs 1" 1 (E.jobs c));
  with_ctx ~seed:1 ~jobs:4 (fun c -> Alcotest.(check int) "jobs 4" 4 (E.jobs c))

let suite =
  [
    Tu.case "create rejects jobs < 1" test_create_rejects_bad_jobs;
    Tu.case "jobs accessor" test_jobs_accessor;
    Tu.slow_case "experiment tables bit-identical -j1 vs -j4"
      test_tables_bit_identical;
    Tu.slow_case "aggregates bit-identical -j1 vs -j4"
      test_aggregates_bit_identical;
    Tu.slow_case "stability sub-contexts share the pool"
      test_stability_shares_parent_pool;
    Tu.slow_case "soak bit-identical -j1 vs -j4" test_soak_parallel_identical;
  ]
