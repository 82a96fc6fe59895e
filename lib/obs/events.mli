(** Wide events: one structured record per request / session step /
    batch job, merging the active {!Context}'s identity, annotations
    and stage timings with the fields given at the emission site.

    Always recorded into a bounded in-memory ring (the flight
    recorder's event source; see {!Recorder}); optionally mirrored as
    JSON lines to a sink ([--wide-events FILE] on the CLI).  Emission
    takes the ring mutex — a per-request cost.  [set_enabled false]
    turns the whole path off (one atomic load per call site), which is
    what the obs-overhead benchmark's baseline uses. *)

type value = Context.value =
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool

type t = {
  seq : int;  (** global emission order (ring and sink follow it) *)
  ts : float;  (** [Unix.gettimeofday] at emission *)
  name : string;  (** e.g. ["http.request"], ["session.step"] *)
  trace_id : string option;
  session_id : string option;
  client : string option;
  route : string option;
  fields : (string * value) list;
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val emit : ?ctx:Context.t -> name:string -> (string * value) list -> unit
(** Build and record an event.  Identity and accumulated
    fields/timings come from [?ctx] (default: {!Context.current});
    stage timings appear as [t_<stage>] fields in seconds.  No-op when
    disabled. *)

val recent : unit -> t list
(** Ring contents, oldest first. *)

val set_capacity : int -> unit
(** Resize the ring (drops its contents).  Default 256. *)

val capacity : unit -> int
val clear : unit -> unit

val to_json : t -> string
(** One-line JSON object: [{"seq", "ts", "event", "trace"?,
    "session"?, "client"?, "route"?, <fields>...}]. *)

val set_sink : (string -> unit) option -> unit
(** Install a line sink called once per event (under a mutex). *)

val file_sink : string -> unit -> unit
(** Open [path], install a line-per-event sink writing to it, and
    return the closer (restores a [None] sink). *)
