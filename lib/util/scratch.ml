let snapshot_family path = [ path; path ^ ".1"; path ^ ".tmp" ]

(* Each path gets its own guard: one failing unlink must not abandon the
   rest of the list, and the guard is deliberately narrow — catching only
   storage errors — so simulated crashes ([Io.Crashed]) and programming
   errors still propagate. *)
let remove_existing ?(io = Io.real) paths =
  List.iter
    (fun p ->
      try if Io.exists io p then Io.remove io p
      with Io.Io_error _ | Sys_error _ -> ())
    paths

(* Mirrors [Filename.temp_file]'s scheme: a self-seeded private PRNG and a
   retry loop drawing names until [mkdir] succeeds, so concurrent
   allocators never share a directory. *)
let prng = lazy (Random.State.make_self_init ())

let rec temp_dir io prefix attempts =
  let name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s%06x" prefix (Random.State.int (Lazy.force prng) 0x1000000))
  in
  match Io.mkdir io name with
  | () -> name
  | exception (Io.Io_error _ | Sys_error _) when attempts > 0 ->
      temp_dir io prefix (attempts - 1)

let with_temp_dir ?(io = Io.real) ?(prefix = "ace_scratch") f =
  let dir = temp_dir io prefix 20 in
  Fun.protect
    ~finally:(fun () ->
      let entries =
        try Io.readdir io dir with Io.Io_error _ | Sys_error _ -> [||]
      in
      Array.iter
        (fun name -> remove_existing ~io [ Filename.concat dir name ])
        entries;
      try Io.rmdir io dir with Io.Io_error _ | Sys_error _ -> ())
    (fun () -> f dir)
