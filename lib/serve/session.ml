module System = Ermes_slm.System
module Incremental = Ermes_core.Incremental

type entry = {
  client : string;
  name : string;
  lock : Mutex.t;
  mutable sys : System.t;
  mutable inc : Incremental.t;
  mutable last_used : float;
}

type table = {
  tlock : Mutex.t;
  entries : (string * string, entry) Hashtbl.t;
  max_per_client : int;
  ttl_s : float;
  clock : unit -> float;
}

let create_table ?(max_per_client = 8) ?(ttl_s = 900.) ~clock () =
  {
    tlock = Mutex.create ();
    entries = Hashtbl.create 16;
    max_per_client;
    ttl_s;
    clock;
  }

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

type path = Fresh | Warm | Rebuilt

let path_name = function Fresh -> "fresh" | Warm -> "warm" | Rebuilt -> "rebuilt"

type outcome = {
  certified : Ermes_core.Perf.certified;
  path : path;
  delay_edits : int;
  rethreads : int;
  marking_edits : int;
  rebuilds : int;
}

let snapshot_stats inc =
  let s = Incremental.stats inc in
  Incremental.
    (s.delay_edits, s.rethreads, s.marking_edits, s.rebuilds)

let analyze_with ~path entry =
  let d0, r0, m0, b0 = snapshot_stats entry.inc in
  let certified = Incremental.analyze_certified entry.inc in
  let d1, r1, m1, b1 = snapshot_stats entry.inc in
  {
    certified;
    path;
    delay_edits = d1 - d0;
    rethreads = r1 - r0;
    marking_edits = m1 - m0;
    rebuilds = b1 - b0;
  }

(* Structural equality up to the mutable state Incremental can absorb:
   identical process/channel declarations (ids coincide with declaration
   order, so index-wise comparison is exact) and identical implementation
   sets. Selections, statement orders and channel kinds are allowed to
   differ — they are the diff. *)
let same_shape held fresh =
  System.process_count held = System.process_count fresh
  && System.channel_count held = System.channel_count fresh
  && List.for_all
       (fun p ->
         System.process_name held p = System.process_name fresh p
         && System.phase held p = System.phase fresh p
         && System.impls held p = System.impls fresh p)
       (System.processes held)
  && List.for_all
       (fun c ->
         System.channel_name held c = System.channel_name fresh c
         && System.channel_src held c = System.channel_src fresh c
         && System.channel_dst held c = System.channel_dst fresh c
         && System.channel_latency held c = System.channel_latency fresh c)
       (System.channels held)

(* Copy the absorbable state of [fresh] onto [held]. *)
let absorb held fresh =
  List.iter
    (fun p ->
      if System.selected held p <> System.selected fresh p then
        System.select held p (System.selected fresh p);
      if System.get_order held p <> System.get_order fresh p then
        System.set_get_order held p (System.get_order fresh p);
      if System.put_order held p <> System.put_order fresh p then
        System.set_put_order held p (System.put_order fresh p))
    (System.processes held);
  List.iter
    (fun c ->
      if System.channel_kind held c <> System.channel_kind fresh c then
        System.set_channel_kind held c (System.channel_kind fresh c))
    (System.channels held)

let find t ~client ~name =
  locked t.tlock (fun () -> Hashtbl.find_opt t.entries (client, name))

let open_ t ~client ~name sys =
  let now = t.clock () in
  let fresh_entry () =
    {
      client;
      name;
      lock = Mutex.create ();
      sys;
      inc = Incremental.create sys;
      last_used = now;
    }
  in
  let admitted =
    locked t.tlock (fun () ->
        match Hashtbl.find_opt t.entries (client, name) with
        | Some _ ->
          (* Re-opening replaces: the client is explicitly starting over. *)
          let e = fresh_entry () in
          Hashtbl.replace t.entries (client, name) e;
          Ok e
        | None ->
          let owned =
            Hashtbl.fold
              (fun (c, _) _ acc -> if c = client then acc + 1 else acc)
              t.entries 0
          in
          if owned >= t.max_per_client then
            Error
              (Printf.sprintf "session cap reached: client %S already holds %d session(s)"
                 client owned)
          else begin
            let e = fresh_entry () in
            Hashtbl.replace t.entries (client, name) e;
            Ok e
          end)
  in
  match admitted with
  | Error _ as e -> e
  | Ok entry -> Ok (locked entry.lock (fun () -> analyze_with ~path:Fresh entry))

let reanalyze t ~client ~name fresh =
  match find t ~client ~name with
  | None -> Error (Printf.sprintf "no session %S for client %S" name client)
  | Some entry ->
    Ok
      (locked entry.lock (fun () ->
           entry.last_used <- t.clock ();
           if same_shape entry.sys fresh then begin
             absorb entry.sys fresh;
             analyze_with ~path:Warm entry
           end
           else begin
             entry.sys <- fresh;
             entry.inc <- Incremental.create fresh;
             analyze_with ~path:Rebuilt entry
           end))

let close t ~client ~name =
  locked t.tlock (fun () ->
      let existed = Hashtbl.mem t.entries (client, name) in
      Hashtbl.remove t.entries (client, name);
      existed)

let close_client t ~client =
  locked t.tlock (fun () ->
      let mine =
        Hashtbl.fold
          (fun ((c, _) as k) _ acc -> if c = client then k :: acc else acc)
          t.entries []
      in
      List.iter (Hashtbl.remove t.entries) mine;
      List.length mine)

let reap_idle t ~now =
  locked t.tlock (fun () ->
      let stale =
        Hashtbl.fold
          (fun k e acc ->
            if now -. e.last_used > t.ttl_s then (k, e) :: acc else acc)
          t.entries []
      in
      List.fold_left
        (fun n (k, e) ->
          (* Skip sessions a worker is actively using — they are not idle,
             whatever the timestamp says. *)
          if Mutex.try_lock e.lock then begin
            Mutex.unlock e.lock;
            Hashtbl.remove t.entries k;
            n + 1
          end
          else n)
        0 stale)

let count t = locked t.tlock (fun () -> Hashtbl.length t.entries)
