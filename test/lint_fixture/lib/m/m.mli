val called : int
val aliased : int
val opened : int
val uncalled : int
