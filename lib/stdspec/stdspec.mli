(** The annotated C standard library (paper, Section 4):

    {v
    null out only void *malloc (size_t size);
    void free (null out only void *ptr);
    char *strcpy (out returned unique char *s1, char *s2);
    v}

    "There is nothing special about malloc and free — their behavior can
    be described entirely in terms of the provided annotations." *)

val source : string
(** The library as annotated C (comment-form annotations). *)

val environment : ?flags:Annot.Flags.t -> unit -> Sema.program
(** A program environment pre-loaded with the standard library. *)

val base_environment :
  ?flags:Annot.Flags.t -> ?no_stdlib:bool ->
  ?libs:(string * string) list -> ?specs:(string * string) list -> unit ->
  Sema.program
(** The environment user sources are analysed into, as [olclint] and the
    incremental service build it: {!environment} (an empty program when
    [no_stdlib]), then each interface library of [libs]
    ({!Check.Libspec.load}), then each LCL specification of [specs], all
    given as (file name, text) pairs. *)

val check : ?flags:Annot.Flags.t -> file:string -> string -> Check.result
(** [Check.run] of one source string against the standard library — the
    common entry point for examples and tests. *)

val lcl_core : string
(** The core of {!source} in the paper's LCL notation (bare-word
    annotations); parses with {!Cfront.Parser.parse_spec_string} to the
    same interfaces. *)

val lcl_environment : ?flags:Annot.Flags.t -> unit -> Sema.program
(** A program environment built from {!lcl_core}. *)
