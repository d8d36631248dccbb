(* The pipe-link façade over {!Supervisor} (DESIGN.md §14): forked
   workers over socketpairs, metrics under the [proc_] prefix. *)

include Supervisor

let run ?config ?inputs program =
  Supervisor.run ~link:Pipe ~prefix:"proc" ?config ?inputs program
