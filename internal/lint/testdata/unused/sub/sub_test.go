package sub

func testsOnlyIsThree() bool { return TestsOnly() == 3 }
