let called = 1
let aliased = 2
let opened = 3
let uncalled = called + 1
