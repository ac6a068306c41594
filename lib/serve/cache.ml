type 'a t = {
  lock : Mutex.t;
  table : (string, 'a entry) Hashtbl.t;  (* canonical key -> entry *)
  aliases : (Digest.t, string) Hashtbl.t;  (* raw-bytes digest -> canonical key *)
  cap : int;
  mutable tick : int;  (* recency clock *)
  mutable hits : int;
  mutable raw_hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* [alias] is the one raw digest that names this entry in [aliases]; it
   leaves with the entry, which keeps the alias table within capacity. *)
and 'a entry = { value : 'a; mutable last_used : int; mutable alias : Digest.t option }

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    aliases = Hashtbl.create 64;
    cap = capacity;
    tick = 0;
    hits = 0;
    raw_hits = 0;
    misses = 0;
    evictions = 0;
  }

let key_of_canonical text = Digest.to_hex (Digest.string text)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let hit t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick;
  t.hits <- t.hits + 1

let drop_alias t key e =
  Option.iter
    (fun raw ->
      if Hashtbl.find_opt t.aliases raw = Some key then Hashtbl.remove t.aliases raw)
    e.alias;
  e.alias <- None

let set_alias t key e = function
  | Some raw when e.alias <> Some raw ->
    drop_alias t key e;
    Hashtbl.replace t.aliases raw key;
    e.alias <- Some raw
  | _ -> ()

let find_raw t raw =
  locked t (fun () ->
      match Hashtbl.find_opt t.aliases raw with
      | None -> None
      | Some key ->
        let e = Hashtbl.find t.table key in
        hit t e;
        t.raw_hits <- t.raw_hits + 1;
        Some (key, e.value))

let find t ?raw key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        hit t e;
        set_alias t key e raw;
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t ?raw key value =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      let alias =
        match Hashtbl.find_opt t.table key with
        | Some old -> old.alias
        | None ->
          if Hashtbl.length t.table >= t.cap then begin
            (* Linear LRU scan: the cache is small (hundreds of entries) and
               eviction is off the hot path, so an index structure would buy
               nothing. *)
            let victim = ref None in
            Hashtbl.iter
              (fun k e ->
                match !victim with
                | Some (_, v) when v.last_used <= e.last_used -> ()
                | _ -> victim := Some (k, e))
              t.table;
            match !victim with
            | Some (k, v) ->
              drop_alias t k v;
              Hashtbl.remove t.table k;
              t.evictions <- t.evictions + 1
            | None -> ()
          end;
          None
      in
      let e = { value; last_used = t.tick; alias } in
      Hashtbl.replace t.table key e;
      set_alias t key e raw)

type stats = {
  size : int;
  aliases : int;
  capacity : int;
  hits : int;
  raw_hits : int;
  misses : int;
  evictions : int;
}

let stats t =
  locked t (fun () ->
      {
        size = Hashtbl.length t.table;
        aliases = Hashtbl.length t.aliases;
        capacity = t.cap;
        hits = t.hits;
        raw_hits = t.raw_hits;
        misses = t.misses;
        evictions = t.evictions;
      })

let reset t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      Hashtbl.reset t.aliases;
      t.tick <- 0;
      t.hits <- 0;
      t.raw_hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
