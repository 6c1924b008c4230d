(** Tree-walking evaluator with step accounting.

    Steps count every expression node evaluated and statement executed,
    so callers (the Lambda compute service) can convert interpreter
    work into simulated CPU time. *)

exception Runtime_error of string

exception Step_limit_exceeded

type outcome = {
  stdout : string list;  (** lines printed, in order *)
  result : Value.t;  (** value of the last expression statement *)
  steps : int;
}

val run : ?max_steps:int -> ?cache:bool -> string -> (outcome, string) result
(** Parse + evaluate a program. All errors (lex, parse, runtime, step
    limit) are rendered into the [Error] string. [cache] (default
    [true]) keeps parsed programs in a per-domain compiled-program
    cache so repeated runs of the same source skip lex+parse entirely;
    step counts are identical either way (parsing never ticks). *)
