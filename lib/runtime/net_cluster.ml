(* The TCP-link façade over {!Supervisor} (DESIGN.md §14): workers dial
   a listener and handshake, metrics under the [net_] prefix. *)

include Supervisor

type config = {
  workers : int;
  listen : string option;
  token : string option;
  spawn_local : bool;
  faults : Fault.t option;
  task_deadline_s : float;
  heartbeat_s : float;
  reconnect_grace_s : float;
  join_deadline_s : float;
  accept_deadline_s : float;
  max_respawns : int;
  worker_redials : int;
  obs : Span.t option;
  metrics : Metrics.t option;
  on_spawn : (slot:int -> pid:int -> unit) option;
  on_task_sent : (slot:int -> chunk:int -> unit) option;
  on_listen : (addr:string -> unit) option;
}

let default_config =
  { workers = 2;
    listen = None;
    token = None;
    spawn_local = true;
    faults = None;
    task_deadline_s = 5.0;
    heartbeat_s = 0.25;
    reconnect_grace_s = 0.5;
    join_deadline_s = 10.0;
    accept_deadline_s = 2.0;
    max_respawns = 8;
    worker_redials = 2;
    obs = None;
    metrics = None;
    on_spawn = None;
    on_task_sent = None;
    on_listen = None;
  }

(* 16 bytes of kernel randomness as 32 hex chars: a listener reachable
   by others must not accept a guessable credential. *)
let gen_token () : string =
  In_channel.with_open_bin "/dev/urandom" (fun ic ->
      match In_channel.really_input_string ic 16 with
      | Some raw ->
          String.concat ""
            (List.map
               (fun c -> Printf.sprintf "%02x" (Char.code c))
               (List.of_seq (String.to_seq raw)))
      | None -> failwith "gen_token: short read from /dev/urandom")

let make_listener (listen : string option) : Unix.file_descr * string =
  let sa =
    match listen with
    | None -> Unix.ADDR_INET (Unix.inet_addr_loopback, 0)
    | Some s -> sockaddr_of_string s
  in
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0
  in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd sa;
    Unix.listen fd 64
  with
  | () -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (ip, port) ->
          (fd, Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port)
      | Unix.ADDR_UNIX p -> (fd, p))
  | exception e ->
      close_quiet fd;
      raise e

let run ?(config = default_config) ?inputs program =
  let c = config in
  let token = match c.token with Some t -> t | None -> gen_token () in
  let listen_fd, addr = make_listener c.listen in
  let link =
    Tcp
      { listen_fd; addr; token;
        spawn_local = c.spawn_local;
        reconnect_grace_s = c.reconnect_grace_s;
        join_deadline_s = c.join_deadline_s;
        accept_deadline_s = c.accept_deadline_s;
        worker_redials = c.worker_redials;
        on_listen = c.on_listen;
      }
  in
  Supervisor.run ~link ~prefix:"net" ?inputs program
    ~config:
      { Supervisor.default_config with
        workers = c.workers;
        faults = c.faults;
        task_deadline_s = c.task_deadline_s;
        heartbeat_s = c.heartbeat_s;
        max_respawns = c.max_respawns;
        obs = c.obs;
        metrics = c.metrics;
        on_spawn = c.on_spawn;
        on_task_sent = c.on_task_sent;
      }
